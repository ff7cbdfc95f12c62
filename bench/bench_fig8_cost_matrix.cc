// Figure 8 of the paper: Figure 7's database/workload
// characteristics feed the cost model of Section 3; the resulting cost
// matrix for Pexa = Per.owns.man.divs.name is the paper's Figure 8
// (15 subpath/organization cells per column, row minima underlined).
//
// Absolute values depend on physical parameters the paper's tech report [7]
// fixed (unavailable); the decisive *shape* — which organization wins each
// row — is asserted in tests/core/advisor_test.cc and reported here.

#include <iomanip>
#include <iostream>

#include "bench_json.h"
#include "core/advisor.h"
#include "datagen/paper_schema.h"

int main() {
  using namespace pathix;

  const PaperSetup setup = MakeExample51Setup();
  std::cout << "=== Figure 7: database and workload characteristics ===\n\n"
            << "  class      n        d       nin   (alpha, beta, gamma)\n"
            << "  Person     200000   20000   1     (0.30, 0.10, 0.10)\n"
            << "  Vehicle    10000    5000    3     (0.30, 0.00, 0.05)\n"
            << "  Bus        5000     2500    2     (0.05, 0.05, 0.10)\n"
            << "  Truck      5000     2500    2     (0.00, 0.10, 0.00)\n"
            << "  Company    1000     1000    4     (0.10, 0.10, 0.10)\n"
            << "  Division   1000     1000    1     (0.20, 0.20, 0.10)\n\n"
            << "physical parameters: page " << setup.catalog.params().page_size
            << " B, oid/pointer/key " << setup.catalog.params().oid_len
            << " B (paper's values are in the unavailable report [7])\n\n";

  const PathContext ctx =
      PathContext::Build(setup.schema, setup.path, setup.catalog, setup.load)
          .value();
  const CostMatrix matrix = CostMatrix::Build(ctx);

  std::cout << "=== Figure 8: cost matrix for Pexa = "
            << setup.path.ToString(setup.schema) << " ===\n\n"
            << std::fixed << std::setprecision(2);
  matrix.Print(std::cout);

  std::cout << "\nper-row winners:\n";
  for (const Subpath& sp : matrix.subpaths()) {
    std::cout << "  " << matrix.RowLabel(SubpathRowIndex(ctx.n(), sp)) << " -> "
              << ToString(matrix.MinOrg(sp)) << " ("
              << matrix.MinCost(sp) << ")\n";
  }

  std::cout << "\ncost breakdown of the winning rows (query / prefix / "
               "maintenance / boundary):\n";
  for (const Subpath& sp : {Subpath{1, 2}, Subpath{3, 4}, Subpath{1, 4}}) {
    const SubpathCost c =
        ComputeSubpathCost(ctx, sp.start, sp.end, matrix.MinOrg(sp));
    std::cout << "  " << matrix.RowLabel(SubpathRowIndex(ctx.n(), sp)) << " ["
              << ToString(matrix.MinOrg(sp)) << "]: " << c.query << " / "
              << c.prefix << " / " << c.maintain << " / " << c.boundary
              << "  = " << c.total() << "\n";
  }

  pathix_bench::BenchJson json("bench_fig8_cost_matrix");
  const Subpath whole{1, ctx.n()};
  json.Add("rows", static_cast<int>(matrix.subpaths().size()));
  json.Add("whole_path_min_cost", matrix.MinCost(whole));
  json.Add("whole_path_min_org", ToString(matrix.MinOrg(whole)));
  json.Add("s12_min_cost", matrix.MinCost(Subpath{1, 2}));
  json.Add("s34_min_cost", matrix.MinCost(Subpath{3, 4}));
  json.Write();
  return 0;
}
