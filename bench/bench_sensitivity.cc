// Ablation: where each organization wins.
//
// The paper motivates index configurations by the tension between NIX's
// single-probe queries and its expensive maintenance. This bench sweeps
// (a) the update/query intensity and (b) the shared-prefix fan-out on the
// Example 5.1 setup, reporting the winning whole-path organization, the
// optimal configuration, and the split's improvement factor — locating the
// crossovers the selection algorithm exploits.

#include <iomanip>
#include <iostream>

#include "bench_json.h"
#include "core/advisor.h"
#include "datagen/paper_schema.h"

namespace {

using namespace pathix;

void SweepUpdateIntensity(pathix_bench::BenchJson* json) {
  std::cout << "=== Sweep A: update intensity (scales every beta/gamma of "
               "Figure 7 by f; queries fixed) ===\n\n"
            << "  f      whole-path winner   whole cost   optimal cost   "
               "factor   optimal configuration\n";
  for (double f : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    PaperSetup setup = MakeExample51Setup();
    LoadDistribution scaled;
    for (ClassId cls : {setup.person, setup.vehicle, setup.bus, setup.truck,
                        setup.company, setup.division}) {
      const OpLoad load = setup.load.Get(cls);
      scaled.Set(cls, load.query, load.insert * f, load.del * f);
    }
    const Recommendation rec =
        AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                                 scaled)
            .value();
    std::printf("  %-6.2f %-19s %-12.2f %-14.2f %-8.2f %s\n", f,
                ToString(rec.whole_path_org), rec.whole_path_cost,
                rec.result.cost, rec.improvement_factor,
                rec.result.config.ToString(setup.schema, setup.path).c_str());
    char key[48];
    std::snprintf(key, sizeof key, "update_f%.2f_optimal_cost", f);
    json->Add(key, rec.result.cost);
  }
  std::cout << "\n(query-only favours one whole-path NIX; growing update "
               "shares push the optimum towards\n configurations that keep "
               "volatile classes in cheap-to-maintain MX/MIX subpaths)\n\n";
}

void SweepQueryClass(pathix_bench::BenchJson* json) {
  std::cout << "=== Sweep B: where the query mass sits (all queries on one "
               "class; Figure 7 updates) ===\n\n"
            << "  query class   whole winner   optimal cost   factor   "
               "optimal configuration\n";
  PaperSetup base = MakeExample51Setup();
  const std::pair<const char*, ClassId> classes[] = {
      {"Person", base.person},   {"Vehicle", base.vehicle},
      {"Bus", base.bus},         {"Company", base.company},
      {"Division", base.division}};
  for (const auto& [name, cls] : classes) {
    PaperSetup setup = MakeExample51Setup();
    LoadDistribution load;
    for (ClassId c : {setup.person, setup.vehicle, setup.bus, setup.truck,
                      setup.company, setup.division}) {
      const OpLoad l = setup.load.Get(c);
      load.Set(c, 0.0, l.insert, l.del);
    }
    ClassId target = setup.schema.FindClass(name);
    const OpLoad l = load.Get(target);
    load.Set(target, 0.95, l.insert, l.del);
    const Recommendation rec =
        AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                                 load)
            .value();
    std::printf("  %-13s %-14s %-14.2f %-8.2f %s\n", name,
                ToString(rec.whole_path_org), rec.result.cost,
                rec.improvement_factor,
                rec.result.config.ToString(setup.schema, setup.path).c_str());
    json->Add(std::string("query_on_") + name + "_optimal_cost",
              rec.result.cost);
  }
  std::cout << "\n(deep query classes benefit from long NIX prefixes; "
               "query mass near the ending attribute\n makes short tail "
               "indexes sufficient)\n\n";
}

void SweepFanOut(pathix_bench::BenchJson* json) {
  std::cout << "=== Sweep C: Company.divs fan-out (nin of Company; Figure 7 "
               "load) ===\n\n"
            << "  nin    whole winner   whole cost   optimal cost   factor   "
               "optimal configuration\n";
  for (double nin : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    PaperSetup setup = MakeExample51Setup();
    ClassStats stats = setup.catalog.GetClassStats(setup.company);
    stats.nin = nin;
    setup.catalog.SetClassStats(setup.company, stats);
    const Recommendation rec =
        AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                                 setup.load)
            .value();
    std::printf("  %-6.1f %-14s %-12.2f %-14.2f %-8.2f %s\n", nin,
                ToString(rec.whole_path_org), rec.whole_path_cost,
                rec.result.cost, rec.improvement_factor,
                rec.result.config.ToString(setup.schema, setup.path).c_str());
    char key[48];
    std::snprintf(key, sizeof key, "fanout_nin%.0f_optimal_cost", nin);
    json->Add(key, rec.result.cost);
  }
  std::cout << "\n=== Sweep D: page size (physical parameter of §4.6) ===\n\n"
            << "  page    whole winner   whole cost   optimal cost   factor   "
               "optimal configuration\n";
  for (double page : {512.0, 1024.0, 2048.0, 4096.0, 8192.0}) {
    PaperSetup setup = MakeExample51Setup();
    setup.catalog.mutable_params()->page_size = page;
    const Recommendation rec =
        AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                                 setup.load)
            .value();
    std::printf("  %-7.0f %-14s %-12.2f %-14.2f %-8.2f %s\n", page,
                ToString(rec.whole_path_org), rec.whole_path_cost,
                rec.result.cost, rec.improvement_factor,
                rec.result.config.ToString(setup.schema, setup.path).c_str());
    char key[48];
    std::snprintf(key, sizeof key, "page%.0f_optimal_cost", page);
    json->Add(key, rec.result.cost);
  }
  std::cout << "\n(the split point after `man` is stable across physical "
               "parameters; organization choices\n on the short tail are "
               "within a few percent of each other)\n";
}

}  // namespace

int main() {
  pathix_bench::BenchJson json("bench_sensitivity");
  SweepUpdateIntensity(&json);
  SweepQueryClass(&json);
  SweepFanOut(&json);
  json.Write();
  return 0;
}
