#include "online/measured_validation.h"

#include <map>
#include <utility>

#include "core/structural_key.h"
#include "costmodel/subpath_cost.h"
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

}  // namespace

Result<MeasuredVsModeledReport> RunMeasuredVsModeled(
    const TraceSpec& spec, std::uint64_t min_query_ops) {
  PATHIX_RETURN_IF_ERROR(CheckReplayableSpec(spec));

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();

  // The fixed configuration under replay: the joint optimum of the
  // ops-weighted average mixes (under the spec's budget) — the assignment a
  // one-shot offline advisor would install. The catalog doubles as phase
  // 0's statistics (index builds do not touch the store).
  MeasuredVsModeledReport report;
  Catalog catalog = CollectWorkloadStatistics(db, spec);
  Result<std::vector<IndexConfiguration>> configs =
      SolveJoint(db, spec, TraceAverageMixes(spec), catalog);
  if (!configs.ok()) return configs.status();
  report.configs = std::move(configs).value();
  PATHIX_RETURN_IF_ERROR(InstallAll(&db, spec, report.configs));

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
    if (i > 0) catalog = CollectWorkloadStatistics(db, spec);
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
