#include "online/joint_controller.h"

#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "costmodel/subpath_cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/transition_cost.h"

namespace pathix {

bool ScopedAnalyzer::Refresh(const SimDatabase& db,
                             const std::vector<const Path*>& paths,
                             const ControllerOptions& options) {
  // The classes in scope, with their live counts.
  std::set<ClassId> scope;
  for (const Path* path : paths) {
    for (int l = 1; l <= path->length(); ++l) {
      for (ClassId cls : db.schema().HierarchyOf(path->class_at(l))) {
        scope.insert(cls);
      }
    }
  }

  std::set<ClassId> drifted;
  for (ClassId cls : scope) {
    const double live = static_cast<double>(db.store().LiveCount(cls));
    if (!has_catalog_) {
      drifted.insert(cls);  // first collection covers everything
      continue;
    }
    const auto it = live_at_collection_.find(cls);
    const double at = it == live_at_collection_.end() ? 0 : it->second;
    if (std::abs(live - at) >
        kStatsRefreshFraction * std::max(1.0, at)) {
      drifted.insert(cls);
    }
  }
  if (drifted.empty()) return false;

  // Its own span inside the drift check, so a trace splits the check into
  // ANALYZE, the re-solve and the part builds.
  obs::ObsSpan span(&obs::GlobalTracer(), "scoped_analyze", "controller");
  span.AddArg("classes", static_cast<double>(drifted.size()));
  if (!has_catalog_) {
    PhysicalParams params = options.physical_params;
    params.page_size = static_cast<double>(db.pager().page_size());
    catalog_ = Catalog(params);
    has_catalog_ = true;
  }
  std::set<std::pair<ClassId, std::string>> collected;
  for (const Path* path : paths) {
    class_collections_ += static_cast<std::uint64_t>(RefreshStatistics(
        db.store(), db.schema(), *path, drifted, &catalog_, &collected));
  }
  for (ClassId cls : drifted) {
    live_at_collection_[cls] = static_cast<double>(db.store().LiveCount(cls));
  }
  ++refreshes_;
  return true;
}

JointReconfigurationController::JointReconfigurationController(
    SimDatabase* db, ControllerOptions options)
    : db_(db),
      options_(std::move(options)),
      path_ids_(db->path_ids()),
      monitor_(options_.half_life_ops),
      decisions_(options_.max_decision_log) {
  cadence_.Init(options_);
  scopes_.reserve(path_ids_.size());
  for (const PathId& id : path_ids_) {
    const std::vector<ClassId> scope_vec = db_->path(id).Scope(db_->schema());
    scopes_.emplace_back(scope_vec.begin(), scope_vec.end());
  }
  if (path_ids_.empty()) {
    status_ = Status::FailedPrecondition(
        "no paths registered; RegisterPath the workload before attaching "
        "the joint controller");
    dormant_.store(true, std::memory_order_relaxed);
  }
}

void JointReconfigurationController::OnOperation(const DbOpEvent& ev) {
  const std::uint64_t ops = monitor_.Observe(ev);
  if (dormant_.load(std::memory_order_relaxed)) return;
  if (ops < options_.warmup_ops) return;
  // Lock-free fast path: while the op count is below the published next
  // check, no thread even attempts the lock. The hint lags a concurrent
  // Reschedule harmlessly — stale readers fall through to the TryLock and
  // lose it.
  if (ops < next_check_hint_.load(std::memory_order_relaxed)) return;
  // A due check is claimed by exactly one thread; the others skip past
  // without blocking (the claimant is checking on everyone's behalf).
  if (!check_mu_.TryLock()) return;
  if (status_.ok() && cadence_.Due(ops)) {
    cadence_.Reschedule(ops, Check());
    next_check_hint_.store(cadence_.next_check(), std::memory_order_relaxed);
    if (!status_.ok()) dormant_.store(true, std::memory_order_relaxed);
  }
  check_mu_.Unlock();
}

void JointReconfigurationController::CheckNow() {
  MutexLock lock(&check_mu_);
  if (status_.ok()) Check();
  if (!status_.ok()) dormant_.store(true, std::memory_order_relaxed);
}

bool JointReconfigurationController::Check() {
  obs::ObsSpan check_span(&obs::GlobalTracer(), "joint_drift_check",
                          "controller");
  ++checks_;

  // One monitor read serves the whole check: every path's load and naive
  // price come from the same drain, so a class's shared update frequencies
  // agree across the paths' rows and the gate prices what the record logs.
  const MonitorSnapshot observed = monitor_.Snapshot(path_ids_, scopes_);

  // Every exit path of the check — hold or commit — lands this record on
  // the decision ledger, so the audit trail has no gaps.
  DecisionRecord rec;
  rec.check_number = checks_;
  rec.op_index = observed.op_index;
  rec.controller = "joint";
  const auto hold = [&](const char* reason) {
    rec.verdict = "hold";
    rec.hold_reason = reason;
    decisions_.Append(std::move(rec));
    return false;
  };

  std::vector<const Path*> paths;
  paths.reserve(path_ids_.size());
  for (const PathId& id : path_ids_) paths.push_back(&db_->path(id));
  // A statistics refresh invalidates the pool's cached skeleton (the
  // fingerprint would catch it too; the explicit call keeps the contract
  // visible and covers fingerprint collisions).
  if (analyzer_.Refresh(*db_, paths, options_)) pool_builder_.Invalidate();

  if (observed.decayed_total <= 0) return hold("no_traffic");

  std::optional<obs::ObsSpan> solve_span;
  solve_span.emplace(&obs::GlobalTracer(), "joint_re_solve", "controller");
  const auto solve_start = std::chrono::steady_clock::now();

  // The workload as currently estimated: per-path query loads, shared
  // update loads — all on one normalization scale.
  std::vector<PathWorkload> workloads;
  std::vector<PathContext> ctxs;
  workloads.reserve(path_ids_.size());
  ctxs.reserve(path_ids_.size());
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    PathWorkload w;
    w.path = *paths[i];
    w.load = observed.loads[i];
    AppendLoadEntries(db_->schema(), path_ids_[i], w.load, &rec);
    rec.naive_pages.push_back(
        DecisionNaivePages{path_ids_[i], observed.naive_pages_per_op[i]});
    Result<PathContext> ctx = PathContext::Build(db_->schema(), *paths[i],
                                                 analyzer_.catalog(), w.load);
    if (!ctx.ok()) {
      status_ = ctx.status();
      return hold("error");
    }
    ctxs.push_back(std::move(ctx).value());
    workloads.push_back(std::move(w));
  }

  AdvisorOptions advisor_options;
  advisor_options.orgs = options_.orgs;
  Result<CandidatePool> pool = pool_builder_.Build(
      db_->schema(), analyzer_.catalog(), workloads, advisor_options);
  if (!pool.ok()) {
    status_ = pool.status();
    return hold("error");
  }
  JointOptions joint_options;
  joint_options.storage_budget_bytes = options_.storage_budget_bytes;
  joint_options.capture_alternatives = options_.decision_top_k;
  Result<JointSelectionResult> joint =
      SelectJointConfiguration(pool.value(), joint_options);
  if (!joint.ok()) {
    status_ = joint.status();
    return hold("error");
  }
  const double solve_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - solve_start)
          .count();
  solve_span.reset();  // a committed change traces as a sibling span

  // Search effort, into the ledger (deterministic) and the metrics
  // (the re-solve duration is wall-clock, so it lives *only* here).
  obs::MetricsRegistry& metrics = db_->metrics();
  metrics
      .CounterAt("pathix_advisor_nodes_explored_total",
                 {{"controller", "joint"}})
      .Increment(static_cast<double>(joint.value().nodes_explored));
  metrics
      .CounterAt("pathix_advisor_nodes_pruned_total",
                 {{"controller", "joint"}})
      .Increment(static_cast<double>(joint.value().nodes_pruned));
  metrics
      .HistogramAt("pathix_advisor_resolve_duration_us",
                   {{"controller", "joint"}})
      .Observe(solve_us);
  metrics.CounterAt("pathix_advisor_pool_cache_hits_total")
      .MirrorTo(static_cast<double>(pool_builder_.cache_hits()));
  rec.search.pool_entries =
      static_cast<long>(pool.value().entries().size());
  rec.search.configs_enumerated = joint.value().configs_enumerated;
  rec.search.nodes_explored = joint.value().nodes_explored;
  rec.search.nodes_pruned = joint.value().nodes_pruned;
  rec.search.lower_bound = joint.value().lower_bound;
  rec.search.bound_gap = joint.value().total_cost - joint.value().lower_bound;
  rec.search.greedy_seed_cost = joint.value().greedy_cost;
  rec.search.greedy_seed_gap =
      joint.value().greedy_cost - joint.value().total_cost;
  rec.search.greedy_seed_feasible = joint.value().greedy_feasible;

  // The scored candidate list: the winning assignment's per-path entries
  // first, then the single-swap alternatives with their why-not margins.
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    DecisionCandidate cand;
    cand.path = path_ids_[i];
    cand.config = joint.value().per_path[i].config.ToString(db_->schema(),
                                                            *paths[i]);
    cand.cost_per_op = joint.value().total_cost;
    cand.storage_bytes = joint.value().total_storage_bytes;
    cand.chosen = true;
    cand.current = db_->has_indexes(path_ids_[i]) &&
                   db_->physical(path_ids_[i]).config() ==
                       joint.value().per_path[i].config;
    rec.candidates.push_back(std::move(cand));
  }
  for (const JointCandidateScore& alt : joint.value().alternatives) {
    const auto pi = static_cast<std::size_t>(alt.path_index);
    DecisionCandidate cand;
    cand.path = path_ids_[pi];
    cand.config = alt.config.ToString(db_->schema(), *paths[pi]);
    cand.cost_per_op = alt.total_cost;
    cand.cost_delta = alt.total_cost - joint.value().total_cost;
    cand.storage_bytes = alt.total_storage_bytes;
    cand.violates_budget = !alt.within_budget;
    cand.current = db_->has_indexes(path_ids_[pi]) &&
                   db_->physical(path_ids_[pi]).config() == alt.config;
    cand.why_not = alt.within_budget ? "costlier" : "over_budget";
    rec.candidates.push_back(std::move(cand));
  }

  bool any_configured = false;
  for (const PathId& id : path_ids_) {
    if (db_->has_indexes(id)) any_configured = true;
  }

  // Transition pricing always sees the whole workload, so a part moving
  // between paths (or staying put anywhere) is free.
  std::vector<PathTransition> transitions(path_ids_.size());
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    transitions[i].ctx = &ctxs[i];
    transitions[i].current =
        db_->has_indexes(path_ids_[i]) ? &db_->physical(path_ids_[i]) : nullptr;
    transitions[i].target = &joint.value().per_path[i].config;
  }

  // Quiet check (the stationary common case the adaptive cadence targets):
  // nothing to price when the solver re-picks the installed assignment. An
  // unconfigured path always constitutes a change — its target is a fresh
  // install.
  bool changed = false;
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    if (!db_->has_indexes(path_ids_[i]) ||
        !(db_->physical(path_ids_[i]).config() ==
          joint.value().per_path[i].config)) {
      changed = true;
      break;
    }
  }
  if (!changed) return hold("already_optimal");

  // Current assignment priced under the same shared accounting as the
  // solver's objective: query+prefix per use, maintenance once per distinct
  // physical structure (the maximum across its uses). Parts whose
  // organization is outside the candidate set are priced directly from the
  // model (they still share by structural identity). An *unconfigured*
  // path's status quo is priced from the pager: the measured naive-scan
  // pages per operation the monitor observed — so the first install is
  // hysteresis-gated like any other transition instead of firing
  // unconditionally.
  double current_cost = 0;
  std::map<StructuralKey, double> placed_maintain;
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    if (!db_->has_indexes(path_ids_[i])) {
      current_cost += observed.naive_pages_per_op[i];
      continue;
    }
    const IndexConfiguration& config = db_->physical(path_ids_[i]).config();
    for (const IndexedSubpath& part : config.parts()) {
      double qp = 0;
      double maintain = 0;
      const int entry =
          pool.value().EntryFor(static_cast<int>(i), part.subpath, part.org);
      if (entry >= 0) {
        const CandidateUse& use = pool.value().UseFor(
            static_cast<int>(i), part.subpath, part.org);
        qp = use.query_prefix;
        maintain = use.maintain;
      } else {
        const SubpathCost cost = ComputeSubpathCost(
            ctxs[i], part.subpath.start, part.subpath.end, part.org);
        qp = cost.query + cost.prefix;
        maintain = cost.maintain + cost.boundary;
      }
      current_cost += AccumulateSharedPartCost(*paths[i], part, qp, maintain,
                                               &placed_maintain);
    }
  }

  const double savings = current_cost - joint.value().total_cost;
  DecisionHysteresis& hyst = rec.hysteresis;
  hyst.horizon_ops = options_.horizon_ops;
  hyst.theta = options_.hysteresis;
  hyst.current_cost_per_op = current_cost;
  hyst.current_is_measured_naive = !any_configured;
  hyst.best_cost_per_op = joint.value().total_cost;
  hyst.savings_per_op = savings;
  // Savings within the tie tolerance only relabel the installed cost.
  if (savings <= kJointCostTolerance) return hold("no_savings");

  hyst.evaluated = true;
  hyst.lhs_pages = savings * options_.horizon_ops;
  hyst.modeled = EstimateJointTransitionCost(transitions, db_->store());
  hyst.rhs_modeled_pages = options_.hysteresis * hyst.modeled.total();
  if (hyst.lhs_pages <= hyst.rhs_modeled_pages) {
    for (DecisionCandidate& cand : rec.candidates) {
      if (cand.chosen) cand.why_not = "hysteresis";
    }
    return hold("hysteresis");
  }
  hyst.passed = true;
  rec.verdict = any_configured ? "switch" : "install";
  return Commit(joint.value().per_path, std::move(rec));
}

bool JointReconfigurationController::Commit(
    const std::vector<JointPathSelection>& targets, DecisionRecord rec) {
  std::vector<std::pair<PathId, IndexConfiguration>> changes;
  changes.reserve(path_ids_.size());
  for (std::size_t i = 0; i < path_ids_.size(); ++i) {
    const IndexConfiguration& target = targets[i].config;
    const bool installed = db_->has_indexes(path_ids_[i]);
    if (installed && db_->physical(path_ids_[i]).config() == target) {
      continue;
    }
    const Path& path = db_->path(path_ids_[i]);
    rec.changes.push_back(DecisionChange{
        path_ids_[i],
        installed ? db_->physical(path_ids_[i]).config().ToString(
                        db_->schema(), path)
                  : "{}",
        target.ToString(db_->schema(), path)});
    changes.emplace_back(path_ids_[i], target);
  }
  obs::ObsSpan commit_span(&obs::GlobalTracer(), "joint_reconfigure",
                           "controller");
  const AccessStats built_before = db_->registry().cumulative_build_io();
  const Status committed = db_->ReconfigureIndexes(changes);
  if (!committed.ok()) {
    status_ = committed;
    rec.verdict = "hold";
    rec.hold_reason = "error";
    rec.changes.clear();
    decisions_.Append(std::move(rec));
    return false;
  }
  DecisionHysteresis& hyst = rec.hysteresis;
  hyst.has_measured = true;
  hyst.measured = MeasuredTransitionCost(
      hyst.modeled, db_->registry().cumulative_build_io() - built_before);
  hyst.rhs_measured_pages = options_.hysteresis * hyst.measured.total();
  transition_charged_ += hyst.modeled.total();
  measured_transition_charged_ += hyst.measured.total();
  ++commits_;
  commit_span.AddArg("initial", rec.verdict == "install" ? "true" : "false");
  commit_span.AddArg("paths_changed", static_cast<double>(changes.size()));
  commit_span.AddArg("modeled_pages", hyst.modeled.total());
  commit_span.AddArg("measured_pages", hyst.measured.total());
  decisions_.Append(std::move(rec));
  return true;
}

void JointReconfigurationController::MirrorMetrics() const {
  obs::MetricsRegistry& m = db_->metrics();
  m.CounterAt("pathix_controller_checks_total")
      .MirrorTo(static_cast<double>(checks_));
  m.CounterAt("pathix_controller_reconfigurations_total")
      .MirrorTo(static_cast<double>(commits_));
  m.CounterAt("pathix_controller_decisions_evicted_total")
      .MirrorTo(static_cast<double>(decisions_.evicted()));
  m.CounterAt("pathix_controller_transition_pages_total",
              {{"kind", "modeled"}})
      .MirrorTo(transition_charged_);
  m.CounterAt("pathix_controller_transition_pages_total",
              {{"kind", "measured"}})
      .MirrorTo(measured_transition_charged_);
  monitor_.ExportMetrics(&m);
}

}  // namespace pathix
