// Joint online index selection: how the JointReconfigurationController's
// advantage and overhead scale with (a) the number of workload paths
// sharing a common tail, (b) how much of each path overlaps with the
// others, and (c) the storage budget. Every experiment replays the
// identical operation stream online / per-phase-joint-oracle / static-joint
// (see online/joint_experiment.h). Self-timed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "online/joint_experiment.h"

namespace {

using namespace pathix;

/// A workload of `paths` overlapping paths: a shared chain
/// M1 -> M2 -> ... -> M<overlap> -> name, entered by per-path head classes
/// H1..H<paths>. Path i = Hi.r.m1....m<overlap-1>.name (length overlap+1),
/// so all paths share the whole chain suffix of length `overlap`. Phases
/// flip between head-query-heavy and churn-heavy traffic.
TraceSpec MakeOverlapTrace(int paths, int overlap, double budget_bytes) {
  TraceSpec spec;
  std::vector<ClassId> chain;
  for (int i = 0; i < overlap; ++i) {
    chain.push_back(
        spec.schema.AddClass("M" + std::to_string(i + 1)).value());
  }
  for (int i = 0; i + 1 < overlap; ++i) {
    CheckOk(spec.schema.AddReferenceAttribute(
        chain[static_cast<std::size_t>(i)],
        "m" + std::to_string(i + 1),
        chain[static_cast<std::size_t>(i + 1)]));
  }
  CheckOk(spec.schema.AddAtomicAttribute(chain.back(), "name",
                                         AtomicType::kString));

  std::vector<std::string> chain_attrs;
  for (int i = 0; i + 1 < overlap; ++i) {
    chain_attrs.push_back("m" + std::to_string(i + 1));
  }
  chain_attrs.push_back("name");

  std::vector<ClassId> heads;
  for (int p = 0; p < paths; ++p) {
    const ClassId head =
        spec.schema.AddClass("H" + std::to_string(p + 1)).value();
    heads.push_back(head);
    CheckOk(spec.schema.AddReferenceAttribute(head, "r", chain.front(),
                                              /*multi=*/true));
    TracePath tp;
    tp.id = "path" + std::to_string(p + 1);
    std::vector<std::string> attrs{"r"};
    attrs.insert(attrs.end(), chain_attrs.begin(), chain_attrs.end());
    tp.path = Path::Create(spec.schema, head, attrs).value();
    spec.paths.push_back(std::move(tp));
  }

  spec.options.orgs = {IndexOrg::kMX, IndexOrg::kNIX, IndexOrg::kNone};
  spec.seed = 20260728;
  spec.storage_budget_bytes = budget_bytes;
  spec.has_budget = std::isfinite(budget_bytes);

  for (ClassId head : heads) {
    spec.populate.push_back(TracePopulate{head, 1200, 1, 1.0});
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const bool last = i + 1 == chain.size();
    spec.populate.push_back(
        TracePopulate{chain[i], last ? 60 : 150, last ? 60 : 1, 1.5});
  }

  for (int f = 0; f < 4; ++f) {
    TracePhase phase;
    phase.ops = 3000;
    phase.queries.assign(spec.paths.size(), {});
    if (f % 2 == 0) {
      phase.name = "search" + std::to_string(f);
      for (std::size_t p = 0; p < spec.paths.size(); ++p) {
        phase.queries[p][heads[p]] = 0.9 / static_cast<double>(paths);
      }
      phase.updates[heads[0]] = OpLoad{0, 0.06, 0.04};
    } else {
      phase.name = "ingest" + std::to_string(f);
      for (std::size_t p = 0; p < spec.paths.size(); ++p) {
        phase.queries[p][heads[p]] = 0.04 / static_cast<double>(paths);
      }
      for (std::size_t p = 0; p < spec.paths.size(); ++p) {
        phase.updates[heads[p]] =
            OpLoad{0, 0.6 / static_cast<double>(paths),
                   0.36 / static_cast<double>(paths)};
      }
    }
    // Resolve the per-path mixes the oracle solves on (the parser does this
    // for file specs; programmatic specs do it by hand).
    phase.mixes.assign(spec.paths.size(), {});
    for (std::size_t p = 0; p < spec.paths.size(); ++p) {
      for (const auto& [cls, w] : phase.queries[p]) {
        const OpLoad upd =
            phase.updates.count(cls) > 0 ? phase.updates.at(cls) : OpLoad{};
        phase.mixes[p].Set(cls, w, upd.insert, upd.del);
      }
      for (const auto& [cls, upd] : phase.updates) {
        if (phase.queries[p].count(cls) > 0) continue;
        if (cls == heads[p] ||
            std::find(chain.begin(), chain.end(), cls) != chain.end()) {
          phase.mixes[p].Set(cls, 0, upd.insert, upd.del);
        }
      }
    }
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

struct RunStats {
  double online = 0;
  double online_measured = 0;  ///< measured pages + measured transition I/O
  double oracle = 0;
  double best_static = 0;
  int switches = 0;
  double millis = 0;
};

RunStats Run(const TraceSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  const JointExperimentReport r =
      RunJointOnlineExperiment(spec, ControllerOptions{}).value();
  const auto end = std::chrono::steady_clock::now();
  RunStats s;
  s.online = r.online.total_cost();
  s.online_measured = r.online.measured_total_cost();
  s.oracle = r.oracle.total_cost();
  s.best_static = r.best_static_joint_cost();
  for (const PhaseReport& phase : r.online.phases) {
    for (const DecisionRecord& rec : phase.decisions) {
      if (rec.verdict == "switch") ++s.switches;
    }
  }
  s.millis =
      std::chrono::duration<double, std::milli>(end - start).count();
  return s;
}

}  // namespace

int main() {
  pathix_bench::BenchJson json("bench_online_joint");

  // ----------------------------------------------------- path-count sweep
  std::printf(
      "=== path-count sweep: N heads into one shared 3-class tail ===\n\n"
      "  paths   switches   online      (measured)  oracle      best static"
      "   online/static   online/oracle   wall ms\n");
  for (const int paths : {1, 2, 4, 6}) {
    const TraceSpec spec = MakeOverlapTrace(
        paths, 3, std::numeric_limits<double>::infinity());
    const RunStats s = Run(spec);
    std::printf(
        "  %-7d %-10d %-11.0f %-11.0f %-11.0f %-13.0f %-15.3f %-15.3f %.0f\n",
        paths, s.switches, s.online, s.online_measured, s.oracle,
        s.best_static, s.best_static > 0 ? s.online / s.best_static : 1.0,
        s.oracle > 0 ? s.online / s.oracle : 1.0, s.millis);
    const std::string prefix = "paths" + std::to_string(paths);
    json.Add(prefix + "_online_cost", s.online);
    json.Add(prefix + "_online_measured_cost", s.online_measured);
    json.Add(prefix + "_oracle_cost", s.oracle);
    json.Add(prefix + "_best_static_cost", s.best_static);
    json.Add(prefix + "_wall_ms", s.millis);
  }
  std::printf(
      "\n(the shared tail is one physical structure however many paths use "
      "it: per-path cost\n grows sublinearly, and the joint solve stays "
      "polynomial per check)\n\n");

  // -------------------------------------------------------- overlap sweep
  std::printf(
      "=== overlap sweep: 3 paths, shared-tail depth vs sharing payoff "
      "===\n\n"
      "  overlap   switches   online      oracle      best static   "
      "online/static   wall ms\n");
  for (const int overlap : {1, 2, 3, 4}) {
    const TraceSpec spec = MakeOverlapTrace(
        3, overlap, std::numeric_limits<double>::infinity());
    const RunStats s = Run(spec);
    std::printf("  %-9d %-10d %-11.0f %-11.0f %-13.0f %-15.3f %.0f\n",
                overlap, s.switches, s.online, s.oracle, s.best_static,
                s.best_static > 0 ? s.online / s.best_static : 1.0, s.millis);
    const std::string prefix = "overlap" + std::to_string(overlap);
    json.Add(prefix + "_online_cost", s.online);
    json.Add(prefix + "_best_static_cost", s.best_static);
  }

  // --------------------------------------------------------- budget sweep
  // The unbudgeted distinct storage of the 4-path workload anchors the
  // sweep: fractions of it constrain the joint solve ever harder.
  std::printf(
      "\n=== budget sweep: 4 paths, budget as a fraction of unbudgeted "
      "storage ===\n\n"
      "  fraction   online      oracle      best static   online/static   "
      "wall ms\n");
  const double anchor = 4e6;
  for (const double fraction : {1.0, 0.5, 0.25, 0.1}) {
    const TraceSpec spec = MakeOverlapTrace(4, 3, anchor * fraction);
    const RunStats s = Run(spec);
    std::printf("  %-10.2f %-11.0f %-11.0f %-13.0f %-15.3f %.0f\n", fraction,
                s.online, s.oracle, s.best_static,
                s.best_static > 0 ? s.online / s.best_static : 1.0, s.millis);
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "budget%g", fraction);
    json.Add(std::string(prefix) + "_online_cost", s.online);
    json.Add(std::string(prefix) + "_oracle_cost", s.oracle);
  }
  std::printf(
      "\n(tighter budgets converge online and static: with little storage "
      "to re-deploy, drift\n offers less to adapt with — the regret "
      "envelope is where the budget bites)\n");

  json.Write();
  return 0;
}
