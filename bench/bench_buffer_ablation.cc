// Ablation: buffer pool vs the paper's cold-access model.
//
// The cost model (like the paper's) charges one page access per B+-tree
// node visit — a cold buffer. Real systems keep hot index levels resident.
// This bench runs the Example 5.1 query mix on the physical simulator under
// growing LRU buffer pools, showing how far the cold assumption is from a
// warm system and that the *relative* ordering of configurations — all the
// selection algorithm needs — is stable.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_json.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"

namespace {

using namespace pathix;

constexpr int kDistinct = 60;
constexpr char kPeople[] = "people";

double QueryMixCost(SimDatabase& db, const PaperSetup& setup,
                    std::size_t buffer_pages) {
  db.pager().EnableBuffer(buffer_pages);
  db.pager().ResetStats();
  // Figure 7's query mix: 0.30 Person, 0.30 Vehicle, 0.05 Bus,
  // 0.10 Company, 0.20 Division — emulated as 19 queries per round.
  const std::pair<ClassId, int> mix[] = {{setup.person, 6},
                                         {setup.vehicle, 6},
                                         {setup.bus, 1},
                                         {setup.company, 2},
                                         {setup.division, 4}};
  int queries = 0;
  for (int round = 0; round < 10; ++round) {
    for (const auto& [cls, reps] : mix) {
      for (int r = 0; r < reps; ++r) {
        const Key value =
            Key::FromString(EndingValue((round * 19 + queries) % kDistinct));
        CheckOk(db.Query(kPeople, value, cls, /*include_subclasses=*/true)
                    .status());
        ++queries;
      }
    }
  }
  const double per_query =
      static_cast<double>(db.pager().stats().total()) / queries;
  db.pager().EnableBuffer(0);
  return per_query;
}

}  // namespace

int main() {
  using namespace pathix;

  std::cout << "=== Buffer-pool ablation: page accesses per query "
               "(Figure 7 query mix, 1/20-scale data) ===\n\n";

  const IndexConfiguration configs[] = {
      IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                          {Subpath{3, 4}, IndexOrg::kMX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMX}}),
  };
  const char* names[] = {"paper optimum (NIX+MX)", "whole-path NIX",
                         "whole-path MIX", "whole-path MX"};
  const char* slugs[] = {"paper_optimum", "whole_nix", "whole_mix",
                         "whole_mx"};
  pathix_bench::BenchJson json("bench_buffer_ablation");

  std::printf("  %-24s %10s %10s %10s %10s\n", "configuration", "cold",
              "buf=16", "buf=128", "buf=1024");
  for (int c = 0; c < 4; ++c) {
    const PaperSetup setup = MakeExample51Setup();
    SimDatabase db(setup.schema, PhysicalParams{});
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(99);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 100, kDistinct, 1.0},
                     {setup.company, 100, 0, 2.0},
                     {setup.vehicle, 500, 0, 2.0},
                     {setup.bus, 250, 0, 1.0},
                     {setup.truck, 250, 0, 1.0},
                     {setup.person, 10000, 0, 1.0},
                 });
    CheckOk(db.ConfigureIndexes(kPeople, configs[c]));
    const double cold = QueryMixCost(db, setup, 0);
    const double buf16 = QueryMixCost(db, setup, 16);
    const double buf128 = QueryMixCost(db, setup, 128);
    const double buf1024 = QueryMixCost(db, setup, 1024);
    std::printf("  %-24s %10.2f %10.2f %10.2f %10.2f\n", names[c], cold,
                buf16, buf128, buf1024);
    json.Add(std::string(slugs[c]) + "_cold", cold);
    json.Add(std::string(slugs[c]) + "_buf16", buf16);
    json.Add(std::string(slugs[c]) + "_buf128", buf128);
    json.Add(std::string(slugs[c]) + "_buf1024", buf1024);
  }
  json.Write();
  std::cout << "\n(the cold column is what the Section 3 model predicts; "
               "realistic buffers (16-128 pages)\n shrink constants but "
               "preserve the ordering the selection algorithm relies on; "
               "once the\n whole working set is resident (buf=1024) only "
               "record-overflow chains remain, which\n penalizes the "
               "large-record NIX organizations — beyond the paper's cold "
               "model)\n";
  return 0;
}
