// The complexity claims of the paper's Section 5.
//
//  - A path of length n has n(n+1)/2 subpaths (cost-matrix rows) and
//    2^(n-1) recombinations.
//  - Exhaustive enumeration explores all 2^(n-1); branch-and-bound prunes
//    ("does not guarantee [reduction] in all cases [but] has proved to be
//    useful in practice"); the interval DP needs O(n^2) lookups.
//
// Reports explored-configuration counts on random cost matrices, plus
// google-benchmark timings of the three optimizers.

#include <benchmark/benchmark.h>

#include <iostream>
#include <random>

#include "bench_json_gbench.h"
#include "core/optimizer.h"

namespace {

using namespace pathix;

CostMatrix RandomMatrix(int n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(1.0, 100.0);
  std::vector<std::vector<double>> values;
  for (int i = 0; i < NumSubpaths(n); ++i) {
    values.push_back({dist(rng), dist(rng), dist(rng)});
  }
  return CostMatrix::FromValues(
      n, {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX}, std::move(values));
}

void PrintScalingTable(pathix_bench::BenchJson* json) {
  std::cout << "=== Opt_Ind_Con scaling: explored configurations "
               "(mean over 20 random matrices) ===\n\n"
            << "  n   matrix rows   exhaustive 2^(n-1)   branch&bound   "
               "pruned      DP cells\n";
  for (int n : {2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16}) {
    double bb_eval = 0;
    double bb_pruned = 0;
    double dp_cells = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      const CostMatrix m = RandomMatrix(n, 1000 + 31 * t + n);
      const OptimizeResult bb = SelectBranchAndBound(m);
      const OptimizeResult dp = SelectDP(m);
      bb_eval += bb.evaluated;
      bb_pruned += bb.pruned;
      dp_cells += dp.evaluated;
    }
    std::printf("  %-3d %-13d %-20.0f %-14.1f %-11.1f %.0f\n", n,
                NumSubpaths(n), std::pow(2.0, n - 1), bb_eval / trials,
                bb_pruned / trials, dp_cells / trials);
    json->Add("n" + std::to_string(n) + "_bb_evaluated", bb_eval / trials);
    json->Add("n" + std::to_string(n) + "_dp_cells", dp_cells / trials);
  }
  std::cout << "\n(the paper: \"in practice a path has rarely a length "
               "greater than 7\"; the matrix itself\n is the dominant cost, "
               "3 * n(n+1)/2 model evaluations)\n\n";
}

void BM_Exhaustive(benchmark::State& state) {
  const CostMatrix m = RandomMatrix(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectExhaustive(m));
  }
}
BENCHMARK(BM_Exhaustive)->DenseRange(4, 16, 4);

void BM_BranchAndBound(benchmark::State& state) {
  const CostMatrix m = RandomMatrix(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectBranchAndBound(m));
  }
}
BENCHMARK(BM_BranchAndBound)->DenseRange(4, 16, 4);

void BM_DP(benchmark::State& state) {
  const CostMatrix m = RandomMatrix(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectDP(m));
  }
}
BENCHMARK(BM_DP)->DenseRange(4, 16, 4);

}  // namespace

int main(int argc, char** argv) {
  pathix_bench::BenchJson json("bench_scaling");
  PrintScalingTable(&json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pathix_bench::JsonLineReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.Write();
  return 0;
}
