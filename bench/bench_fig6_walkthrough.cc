// Reproduces the paper's Figure 6 and the Section 5
// walkthrough of Opt_Ind_Con on the hypothetical cost matrix for
// Pex = C1.A1.A2.A3.A4.
//
// Paper's narrative: start from {P, NIX} (cost 9); evaluate {S13|S44}=12,
// {S12|S34}=12, {S12|S3|S4}=12; improve with {S1|S234}=8; prune {S1|S23...}
// at 8; evaluate {S1|S2|S34}=13; prune {S1|S2|S3...} at 9. Optimal:
// {(C1.A1, MX), (C2.A2.A3.A4, NIX)} with processing cost 8.

#include <cstdio>
#include <iostream>

#include "bench_json.h"
#include "core/optimizer.h"
#include "datagen/paper_schema.h"

int main() {
  using namespace pathix;

  std::cout << "=== Figure 6: hypothetical cost matrix for Pex = "
               "C1.A1.A2.A3.A4 ===\n"
               "(values printed in the paper are reconstructed to satisfy "
               "every walkthrough constraint;\n row minima marked '*' — the "
               "paper underlines them)\n\n";
  const CostMatrix matrix = MakeFigure6Matrix();
  matrix.Print(std::cout);

  std::cout << "\n=== Section 5 walkthrough: Opt_Ind_Con trace ===\n";
  const OptimizeResult bb = SelectBranchAndBound(matrix, /*capture_trace=*/true);
  for (const OptimizerTraceEvent& ev : bb.trace) {
    std::cout << "  " << ev.ToString() << "\n";
  }

  const OptimizeResult ex = SelectExhaustive(matrix);
  std::cout << "\noptimal configuration : " << bb.config.ToString()
            << "\nprocessing cost       : " << bb.cost
            << "   (paper: {(C1.A1, MX), (C2.A2.A3.A4, NIX)}, cost 8)"
            << "\nconfigs evaluated     : " << bb.evaluated << " of "
            << ex.evaluated << " (pruned prefixes: " << bb.pruned << ")\n";

  const bool ok = bb.cost == 8.0 && bb.config.degree() == 2 &&
                  bb.config.parts()[0].org == IndexOrg::kMX &&
                  bb.config.parts()[1].org == IndexOrg::kNIX &&
                  ex.cost == bb.cost;
  std::cout << (ok ? "\n[REPRODUCED] Figure 6 walkthrough matches the paper.\n"
                   : "\n[MISMATCH] walkthrough diverged from the paper!\n");

  pathix_bench::BenchJson json("bench_fig6_walkthrough");
  json.Add("bb_cost", bb.cost);
  json.Add("bb_evaluated", bb.evaluated);
  json.Add("bb_pruned", bb.pruned);
  json.Add("exhaustive_evaluated", ex.evaluated);
  json.Add("reproduced", ok ? 1 : 0);
  json.Write();
  return ok ? 0 : 1;
}
