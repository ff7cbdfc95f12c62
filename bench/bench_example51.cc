// The two conclusions of the paper's Example 5.1.
//
//  1. Splitting the path beats any single whole-path index: the paper
//     reports 16.03 for {(Per.owns.man, NIX), (Comp.divs.name, MX)} vs
//     42.84 for a whole-path NIX — a factor 2.7.
//  2. Branch-and-bound finds the optimum exploring 4 configurations
//     instead of all 2^(n-1) = 8.
//
// Our physical parameters differ from the unavailable report [7]; the
// reproduced quantities are the configuration itself, the direction and
// magnitude of the improvement, and the pruning behaviour. EXPERIMENTS.md
// records paper-vs-measured values.

#include <iomanip>
#include <iostream>

#include "bench_json.h"
#include "core/advisor.h"
#include "datagen/paper_schema.h"

int main() {
  using namespace pathix;

  const PaperSetup setup = MakeExample51Setup();
  AdvisorOptions opts;
  opts.capture_trace = true;
  const Recommendation rec =
      AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                               setup.load, opts)
          .value();
  AdvisorOptions exhaustive_opts;
  exhaustive_opts.use_branch_and_bound = false;
  const Recommendation ex =
      AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                               setup.load, exhaustive_opts)
          .value();

  std::cout << std::fixed << std::setprecision(2)
            << "=== Example 5.1: optimal index configuration for "
            << setup.path.ToString(setup.schema) << " ===\n\n";

  std::cout << "whole-path single-index costs:\n";
  const Subpath whole{1, 4};
  for (IndexOrg org : rec.matrix.orgs()) {
    std::cout << "  " << std::setw(4) << ToString(org) << " : "
              << rec.matrix.Cost(whole, org) << "\n";
  }

  std::cout << "\n                          measured        paper\n"
            << "optimal configuration : "
            << rec.result.config.ToString(setup.schema, setup.path) << "\n"
            << "                        (paper: {(Per.owns.man, NIX), "
               "(Comp.divs.name, MX)})\n"
            << "optimal cost          : " << std::setw(8) << rec.result.cost
            << "        16.03\n"
            << "best whole-path       : " << std::setw(8)
            << rec.whole_path_cost << "        42.84  (both NIX)\n"
            << "improvement factor    : " << std::setw(8)
            << rec.improvement_factor << "        2.7\n"
            << "configs explored (BB) : " << std::setw(8)
            << rec.result.evaluated << "        4\n"
            << "configs explored (ex) : " << std::setw(8) << ex.result.evaluated
            << "        8\n";

  std::cout << "\nbranch-and-bound trace:\n";
  for (const OptimizerTraceEvent& ev : rec.result.trace) {
    std::cout << "  " << ev.ToString() << "\n";
  }

  const bool same_config =
      rec.result.config.ToString(setup.schema, setup.path) ==
      "{(Person.owns.man, NIX), (Company.divs.name, MX)}";
  // Whole-path winner: the paper reports NIX; with our physical parameters
  // NIX and MIX tie within a few percent (see EXPERIMENTS.md).
  const bool nix_competitive =
      rec.matrix.Cost(whole, IndexOrg::kNIX) <= rec.whole_path_cost * 1.15;
  const bool shape_holds = nix_competitive && rec.improvement_factor > 1.3 &&
                           rec.result.evaluated < ex.result.evaluated &&
                           rec.result.cost == ex.result.cost;
  std::cout << (same_config && shape_holds
                    ? "\n[REPRODUCED] Example 5.1's optimal configuration and "
                      "both conclusions hold\n             (whole-path "
                      "winner is a NIX/MIX near-tie; paper: NIX).\n"
                    : "\n[MISMATCH] Example 5.1 shape diverged!\n");

  pathix_bench::BenchJson json("bench_example51");
  json.Add("optimal_cost", rec.result.cost);
  json.Add("whole_path_cost", rec.whole_path_cost);
  json.Add("improvement_factor", rec.improvement_factor);
  json.Add("configs_explored_bb", rec.result.evaluated);
  json.Add("configs_explored_exhaustive", ex.result.evaluated);
  json.Add("reproduced", same_config && shape_holds ? 1 : 0);
  json.Write();
  return same_config && shape_holds ? 0 : 1;
}
