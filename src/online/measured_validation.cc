#include "online/measured_validation.h"

#include <map>
#include <set>
#include <utility>

#include "core/structural_key.h"
#include "costmodel/subpath_cost.h"
#include "exec/analyze.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {

namespace {

/// Counts the replay's operations per kind and, for queries, per path —
/// the denominators of the per-op comparisons.
class OpCounter : public DbOpObserver {
 public:
  void OnOperation(const DbOpEvent& ev) override {
    if (ev.kind == DbOpKind::kQuery) ++query_ops_[PathId(ev.path)];
  }

  std::uint64_t query_ops(const PathId& path) const {
    const auto it = query_ops_.find(path);
    return it == query_ops_.end() ? 0 : it->second;
  }
  void Reset() { query_ops_.clear(); }

 private:
  std::map<PathId, std::uint64_t> query_ops_;
};

/// Statistics exactly as the controller's scoped ANALYZE collects them
/// (everything in every path's scope, shared (class, attribute) pairs
/// scanned once) on the live store.
Catalog CollectStats(const SimDatabase& db, const TraceSpec& spec) {
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

/// Sum of every weight of the phase's mix (all paths' queries plus the
/// updates): the normalizer turning weighted model costs into pages per
/// replayed operation.
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

}  // namespace

Result<MeasuredVsModeledReport> RunMeasuredVsModeled(
    const TraceSpec& spec, std::uint64_t min_query_ops) {
  for (IndexOrg org : spec.options.orgs) {
    if (org == IndexOrg::kNX || org == IndexOrg::kPX) {
      return Status::FailedPrecondition(
          "NX/PX are model-only candidates; the validation replay runs "
          "physical configurations");
    }
  }
  if (spec.paths.empty()) {
    return Status::InvalidArgument("trace spec declares no paths");
  }

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();

  // The fixed configuration under replay: the joint optimum of the
  // ops-weighted average mixes (under the spec's budget) — the assignment a
  // one-shot offline advisor would install. The catalog doubles as phase
  // 0's statistics (index builds do not touch the store).
  MeasuredVsModeledReport report;
  Catalog catalog = CollectStats(db, spec);
  {
    std::vector<PathWorkload> workloads;
    workloads.reserve(spec.paths.size());
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      PathWorkload w;
      w.name = spec.paths[p].id;
      w.path = spec.paths[p].path;
      w.load = TraceAverageMix(spec, p);
      workloads.push_back(std::move(w));
    }
    AdvisorOptions advisor_options;
    advisor_options.orgs = spec.options.orgs;
    Result<CandidatePool> pool =
        CandidatePool::Build(db.schema(), catalog, workloads, advisor_options);
    if (!pool.ok()) return pool.status();
    JointOptions joint_options;
    joint_options.storage_budget_bytes = spec.storage_budget_bytes;
    Result<JointSelectionResult> joint =
        SelectJointConfiguration(pool.value(), joint_options);
    if (!joint.ok()) return joint.status();

    std::vector<std::pair<PathId, IndexConfiguration>> changes;
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      report.configs.push_back(joint.value().per_path[p].config);
      changes.emplace_back(spec.paths[p].id, report.configs.back());
    }
    PATHIX_RETURN_IF_ERROR(db.ReconfigureIndexes(changes));
  }

  OpCounter counter;
  db.SetObserver(&counter);

  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    const TracePhase& phase = spec.phases[i];
    const double phase_weight = PhaseWeight(phase);
    if (phase_weight <= 0 || phase.ops == 0) continue;

    // The modeled side, on statistics of the store as it stands entering
    // the phase (the same live-ANALYZE view a controller would solve on;
    // phase 0 reuses the selection catalog — nothing has mutated the store
    // since).
    if (i > 0) catalog = CollectStats(db, spec);
    std::vector<double> modeled_query(spec.paths.size(), 0);
    double modeled_total = 0;
    std::map<StructuralKey, double> placed_maintain;
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      Result<PathContext> ctx = PathContext::Build(
          db.schema(), spec.paths[p].path, catalog, phase.mixes[p]);
      if (!ctx.ok()) return ctx.status();
      for (const IndexedSubpath& part : report.configs[p].parts()) {
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

    // The measured side: scoped tallies over the phase's replay.
    db.pager().ResetTallies();
    counter.Reset();
    const PhaseReport measured = driver.RunPhase(i).phase;

    const double ops = static_cast<double>(phase.ops);
    MeasuredVsModeledPhase totals;
    totals.phase = phase.name;
    totals.ops = phase.ops;
    totals.measured_pages_per_op = static_cast<double>(measured.pages) / ops;
    totals.modeled_pages_per_op = modeled_total / phase_weight;
    report.phases.push_back(totals);

    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      MeasuredVsModeledCell cell;
      cell.phase = phase.name;
      cell.path = spec.paths[p].id;
      cell.query_ops = counter.query_ops(spec.paths[p].id);
      if (cell.query_ops < min_query_ops) continue;
      const auto& tallies = db.pager().label_tallies();
      const auto it = tallies.find(spec.paths[p].id);
      cell.measured_pages_per_op =
          it == tallies.end() ? 0
                              : static_cast<double>(it->second.total()) / ops;
      cell.modeled_pages_per_op = modeled_query[p] / phase_weight;
      report.cells.push_back(std::move(cell));
    }
  }

  db.SetObserver(nullptr);
  return report;
}

}  // namespace pathix
