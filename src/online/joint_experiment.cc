#include "online/joint_experiment.h"

#include <map>
#include <set>
#include <utility>

#include "core/structural_key.h"
#include "costmodel/subpath_cost.h"
#include "exec/analyze.h"
#include "serve/serve_driver.h"

namespace pathix {

namespace {

/// A freshly populated database with every path registered, served by one
/// worker — the deterministic replay every run of the experiment shares.
/// A nonzero \p buffer_pages enables the buffer pool *after* population,
/// so every replay starts from an identically cold pool.
struct Instance {
  Instance(const TraceSpec& spec, std::size_t buffer_pages)
      : db(spec.schema, spec.catalog.params()),
        driver(&db, spec, ServeOptions{1}) {
    driver.Populate();
    if (buffer_pages > 0) db.pager().EnableBuffer(buffer_pages);
  }

  SimDatabase db;
  ServeDriver driver;
};

/// Sum of every weight of the phase's mix (all paths' queries plus the
/// updates): the normalizer turning weighted model costs into pages per
/// replayed operation, one scale for every path.
double PhaseWeight(const TracePhase& phase) {
  double total = 0;
  for (const auto& per_path : phase.queries) {
    for (const auto& [cls, weight] : per_path) {
      (void)cls;
      total += weight;
    }
  }
  for (const auto& [cls, upd] : phase.updates) {
    (void)cls;
    total += upd.insert + upd.del;
  }
  return total;
}

/// Statistics exactly as the joint controller's scoped ANALYZE collects
/// them on first refresh (everything in every path's scope, shared
/// (class, attribute) pairs scanned once), so replay-side solves are
/// apples to apples with the online run.
Catalog CollectWorkloadStatistics(const SimDatabase& db, const TraceSpec& spec) {
  PhysicalParams params = spec.catalog.params();
  params.page_size = static_cast<double>(db.pager().page_size());
  Catalog catalog(params);
  std::set<std::pair<ClassId, std::string>> collected;
  for (const TracePath& tp : spec.paths) {
    std::set<ClassId> scope;
    const std::vector<ClassId> scope_vec = tp.path.Scope(db.schema());
    scope.insert(scope_vec.begin(), scope_vec.end());
    RefreshStatistics(db.store(), db.schema(), tp.path, scope, &catalog,
                      &collected);
  }
  return catalog;
}

/// The joint optimum for the given per-path loads (parallel to
/// spec.paths) under the spec's budget, on \p catalog (live statistics of
/// the database the replay runs on). With \p standalone, instead the
/// unbudgeted solve's greedy seed: each path's standalone optimum.
Result<std::vector<IndexConfiguration>> SolveJoint(
    const SimDatabase& db, const TraceSpec& spec,
    const std::vector<LoadDistribution>& loads, const Catalog& catalog,
    bool standalone = false) {
  std::vector<PathWorkload> workloads;
  workloads.reserve(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    PathWorkload w;
    w.name = spec.paths[p].id;
    w.path = spec.paths[p].path;
    w.load = loads[p];
    workloads.push_back(std::move(w));
  }
  AdvisorOptions advisor_options;
  advisor_options.orgs = spec.options.orgs;
  Result<CandidatePool> pool =
      CandidatePool::Build(db.schema(), catalog, workloads, advisor_options);
  if (!pool.ok()) return pool.status();
  JointOptions joint_options;
  if (!standalone) {
    joint_options.storage_budget_bytes = spec.storage_budget_bytes;
  }
  Result<JointSelectionResult> joint =
      SelectJointConfiguration(pool.value(), joint_options);
  if (!joint.ok()) return joint.status();
  std::vector<IndexConfiguration> configs;
  configs.reserve(spec.paths.size());
  for (const JointPathSelection& sel : standalone
                                           ? joint.value().greedy_per_path
                                           : joint.value().per_path) {
    configs.push_back(sel.config);
  }
  return configs;
}

/// Installs one configuration per path of \p spec as one batch (uncounted).
Status InstallAll(SimDatabase* db, const TraceSpec& spec,
                  const std::vector<IndexConfiguration>& configs) {
  std::vector<std::pair<PathId, IndexConfiguration>> changes;
  changes.reserve(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    changes.emplace_back(spec.paths[p].id, configs[p]);
  }
  return db->ReconfigureIndexes(changes);
}

/// The ops-weighted average of the trace's phase mixes, one load per path
/// (parallel to spec.paths) — the loads a one-shot offline advisor would
/// be handed if the drift were averaged away. All paths share one
/// normalization scale.
std::vector<LoadDistribution> TraceAverageMixes(const TraceSpec& spec) {
  // The phase weight normalizes over the *whole* phase mix (every path's
  // queries plus the updates), so multi-path averages stay on one common
  // scale.
  std::vector<std::map<ClassId, OpLoad>> acc(spec.paths.size());
  double total_ops = 0;
  for (const TracePhase& phase : spec.phases) {
    const double phase_total = PhaseWeight(phase);
    if (phase_total <= 0) continue;
    const double ops = static_cast<double>(phase.ops);
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      for (const auto& [cls, l] : phase.mixes[p].entries()) {
        OpLoad& a = acc[p][cls];
        a.query += l.query / phase_total * ops;
        a.insert += l.insert / phase_total * ops;
        a.del += l.del / phase_total * ops;
      }
    }
    total_ops += ops;
  }
  std::vector<LoadDistribution> avg(spec.paths.size());
  if (total_ops <= 0) return avg;
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    for (const auto& [cls, a] : acc[p]) {
      avg[p].Set(cls, a.query / total_ops, a.insert / total_ops,
                 a.del / total_ops);
    }
  }
  return avg;
}

/// The static field, solved on \p db's freshly populated store (whose
/// statistics \p catalog holds): the joint optimum of the averaged mixes
/// (always first) and of each phase's mixes, all under the budget, plus
/// the per-path standalone optima of the averaged mixes. Identical
/// assignments are kept once.
Result<std::vector<JointStaticCandidate>> SolveStatics(const SimDatabase& db,
                                                       const TraceSpec& spec,
                                                       const Catalog& catalog) {
  std::vector<JointStaticCandidate> candidates;
  const auto add_candidate = [&](const std::string& label,
                                 bool respects_budget,
                                 const std::vector<IndexConfiguration>& configs) {
    for (const JointStaticCandidate& c : candidates) {
      if (c.configs == configs) return;  // dedup identical assignments
    }
    JointStaticCandidate c;
    c.label = label;
    c.respects_budget = respects_budget;
    c.configs = configs;
    candidates.push_back(std::move(c));
  };

  const std::vector<LoadDistribution> avg = TraceAverageMixes(spec);
  Result<std::vector<IndexConfiguration>> joint_avg =
      SolveJoint(db, spec, avg, catalog);
  if (!joint_avg.ok()) return joint_avg.status();
  add_candidate("avg-mix", true, joint_avg.value());
  for (const TracePhase& phase : spec.phases) {
    Result<std::vector<IndexConfiguration>> joint_phase =
        SolveJoint(db, spec, phase.mixes, catalog);
    if (!joint_phase.ok()) return joint_phase.status();
    add_candidate("phase-" + phase.name, true, joint_phase.value());
  }

  // The standalone optima share identical structures through the registry,
  // as the greedy seed prices them; they may bust the budget and are
  // reported as the what-unlimited-storage-buys baseline.
  Result<std::vector<IndexConfiguration>> independent =
      SolveJoint(db, spec, avg, catalog, /*standalone=*/true);
  if (!independent.ok()) return independent.status();
  add_candidate("independent-greedy", false, independent.value());
  return candidates;
}

/// A path gets a measured-vs-modeled cell only when the phase directed at
/// least this many queries at it.
constexpr std::uint64_t kMinQueryOps = 50;

/// Appends one phase of the avg-mix replay to \p out. The measured side is
/// the phase's replay (\p measured) and the pager's per-path tallies over
/// it; the modeled side is the cost matrix of \p configs under the phase's
/// true mixes, priced on \p catalog (the statistics entering the phase).
Status AppendMeasuredVsModeled(
    const TraceSpec& spec, const TracePhase& phase,
    const std::vector<IndexConfiguration>& configs, const Catalog& catalog,
    const PhaseReport& measured,
    const std::map<std::string, AccessStats>& tallies, MeasuredVsModeled* out) {
  const double phase_weight = PhaseWeight(phase);
  if (phase_weight <= 0 || phase.ops == 0) return Status::OK();

  std::vector<double> modeled_query(spec.paths.size(), 0);
  double modeled_total = 0;
  std::map<StructuralKey, double> placed_maintain;
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    Result<PathContext> ctx = PathContext::Build(
        spec.schema, spec.paths[p].path, catalog, phase.mixes[p]);
    if (!ctx.ok()) return ctx.status();
    for (const IndexedSubpath& part : configs[p].parts()) {
      const SubpathCost cost = ComputeSubpathCost(
          ctx.value(), part.subpath.start, part.subpath.end, part.org);
      modeled_query[p] += cost.query + cost.prefix;
      // Maintenance once per distinct physical structure (the maximum
      // across its uses) — the advisor's shared accounting, which the
      // part registry made physically true.
      modeled_total += AccumulateSharedPartCost(
          spec.paths[p].path, part, /*query_prefix=*/0,
          cost.maintain + cost.boundary, &placed_maintain);
    }
    modeled_total += modeled_query[p];
  }
  // Store I/O the cost model never prices but the replay pays: one slot
  // write per insert, one read + one write per delete (object_store.h).
  for (const auto& [cls, upd] : phase.updates) {
    (void)cls;
    modeled_total += upd.insert * 1 + upd.del * 2;
  }

  const double ops = static_cast<double>(phase.ops);
  MeasuredVsModeledPhase totals;
  totals.phase = phase.name;
  totals.ops = phase.ops;
  totals.measured_pages_per_op = static_cast<double>(measured.pages) / ops;
  totals.modeled_pages_per_op = modeled_total / phase_weight;
  out->phases.push_back(std::move(totals));

  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const PathId& id = spec.paths[p].id;
    const auto count = [&id](const std::map<std::string, std::uint64_t>& m) {
      const auto it = m.find(id);
      return it == m.end() ? std::uint64_t{0} : it->second;
    };
    MeasuredVsModeledCell cell;
    cell.phase = phase.name;
    cell.path = id;
    cell.query_ops =
        count(measured.query_ops) + count(measured.naive_query_ops);
    if (cell.query_ops < kMinQueryOps) continue;
    const auto it = tallies.find(id);
    cell.measured_pages_per_op =
        it == tallies.end() ? 0
                            : static_cast<double>(it->second.total()) / ops;
    cell.modeled_pages_per_op = modeled_query[p] / phase_weight;
    out->cells.push_back(std::move(cell));
  }
  return Status::OK();
}

}  // namespace

Result<JointExperimentReport> RunJointOnlineExperiment(
    const TraceSpec& spec, const ControllerOptions& options,
    std::size_t buffer_pages) {
  PATHIX_RETURN_IF_ERROR(CheckReplayableSpec(spec));

  JointExperimentReport report;
  const ControllerOptions copts = ControllerOptionsFor(spec, options);

  // ----------------------------------------------------------- online run
  {
    Instance inst(spec, buffer_pages);
    JointReconfigurationController controller(&inst.db, copts);
    inst.db.SetObserver(&controller);
    report.online_metrics_baseline = inst.db.SnapshotMetrics();
    report.online.label = "online";
    report.online.phases.reserve(spec.phases.size());
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      report.online.phases.push_back(
          inst.driver.RunPhase(i, &controller).phase);
      controller.MirrorMetrics();
      report.online_phase_metrics.push_back(inst.db.SnapshotMetrics());
    }
    inst.db.SetObserver(nullptr);
    if (!controller.status().ok()) return controller.status();
    controller.MirrorMetrics();
    report.online_metrics = inst.db.SnapshotMetrics();
  }

  // ------------------------------------- joint oracle run, static solves
  // The statistics entering each phase, collected once on the oracle's
  // store: the oracle solves on them, and so do the statics (phase 0's)
  // and the modeled side of the measured-vs-modeled check.
  std::vector<Catalog> catalogs;
  {
    Instance inst(spec, buffer_pages);
    catalogs.push_back(CollectWorkloadStatistics(inst.db, spec));
    Result<std::vector<JointStaticCandidate>> statics =
        SolveStatics(inst.db, spec, catalogs.front());
    if (!statics.ok()) return statics.status();
    report.statics = std::move(statics).value();

    report.oracle.label = "oracle";
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      // The replay mutates the store between phases, so the oracle
      // re-collects per phase — just like the online run's scoped ANALYZE.
      if (i > 0) catalogs.push_back(CollectWorkloadStatistics(inst.db, spec));
      Result<std::vector<IndexConfiguration>> best =
          SolveJoint(inst.db, spec, spec.phases[i].mixes, catalogs[i]);
      if (!best.ok()) return best.status();
      PATHIX_RETURN_IF_ERROR(InstallAll(&inst.db, spec, best.value()));
      report.oracle_configs.push_back(best.value());
      report.oracle.phases.push_back(inst.driver.RunPhase(i).phase);
    }
  }

  // ------------------------------------------------------- static replays
  for (std::size_t c = 0; c < report.statics.size(); ++c) {
    JointStaticCandidate& candidate = report.statics[c];
    Instance inst(spec, buffer_pages);
    PATHIX_RETURN_IF_ERROR(InstallAll(&inst.db, spec, candidate.configs));
    candidate.run.label = "static:" + candidate.label;
    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      inst.db.pager().ResetTallies();  // per-phase per-path tallies
      candidate.run.phases.push_back(inst.driver.RunPhase(i).phase);
      if (c == 0) {  // the avg-mix optimum
        PATHIX_RETURN_IF_ERROR(AppendMeasuredVsModeled(
            spec, spec.phases[i], candidate.configs, catalogs[i],
            candidate.run.phases.back(), inst.db.pager().label_tallies(),
            &report.measured_vs_modeled));
      }
    }
  }
  for (std::size_t i = 0; i < report.statics.size(); ++i) {
    if (!report.statics[i].respects_budget) continue;
    if (report.best_static_joint < 0 ||
        report.statics[i].run.total_cost() <
            report.statics[static_cast<std::size_t>(report.best_static_joint)]
                .run.total_cost()) {
      report.best_static_joint = static_cast<int>(i);
    }
  }

  return report;
}

}  // namespace pathix
