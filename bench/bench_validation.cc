// Validation experiment: the paper validated its cost model
// against the analysis in its unavailable technical report [7]; our
// substitute evidence is the page-level simulator. This bench populates a
// 1/10-scale Figure 7 database, collects the *actual* statistics
// (exec/analyze), and compares, per organization and operation:
//
//     analytic prediction (Section 3 formulas)  vs  counted page accesses
//
// Absolute agreement is not expected (the model works with statistical
// averages, the simulator with one concrete database); predictions should
// land within a small constant factor, and — decisive for the selection
// algorithm — the *ranking* of organizations per operation should match.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <random>
#include <vector>

#include "bench_json.h"
#include "costmodel/org_model.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "exec/database.h"

namespace {

using namespace pathix;

constexpr int kDistinct = 100;
constexpr char kPeople[] = "people";

struct Row {
  const char* op;
  double model = 0;
  double measured = 0;
};

struct Bench {
  Bench() : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(2024);
    created = gen.Populate(&db, setup.path,
                           {
                               {setup.division, 100, kDistinct, 1.0},
                               {setup.company, 100, 0, 4.0},
                               {setup.vehicle, 1000, 0, 3.0},
                               {setup.bus, 500, 0, 2.0},
                               {setup.truck, 500, 0, 2.0},
                               {setup.person, 20000, 0, 1.0},
                           });
    catalog = CollectStatistics(db.store(), setup.schema, setup.path,
                                PhysicalParams{});
  }

  PaperSetup setup;
  SimDatabase db;
  std::map<ClassId, std::vector<Oid>> created;
  Catalog catalog;
};

double MeasureQueries(Bench& b, ClassId target, int n_queries) {
  double total = 0;
  for (int i = 0; i < n_queries; ++i) {
    const Key value = Key::FromString(EndingValue(i % kDistinct));
    b.db.pager().ResetStats();
    CheckOk(b.db.Query(kPeople, value, target).status());
    total += static_cast<double>(b.db.pager().stats().total());
  }
  return total / n_queries;
}

double MeasureInserts(Bench& b, ClassId cls, const std::string& attr,
                      const std::vector<Oid>& pool, int reps, int nvals) {
  std::mt19937 rng(77);
  double total = 0;
  for (int i = 0; i < reps; ++i) {
    AttrValues attrs;
    for (int v = 0; v < nvals; ++v) {
      attrs[attr].push_back(Value::Ref(pool[rng() % pool.size()]));
    }
    b.db.pager().ResetStats();
    b.db.Insert(cls, std::move(attrs));
    total += static_cast<double>(b.db.pager().stats().total());
  }
  return total / reps;
}

double MeasureDeletes(Bench& b, std::vector<Oid>* victims, int reps) {
  std::mt19937 rng(78);
  double total = 0;
  int done = 0;
  for (int i = 0; i < reps && !victims->empty(); ++i) {
    const std::size_t pick = rng() % victims->size();
    const Oid victim = (*victims)[pick];
    victims->erase(victims->begin() + pick);
    b.db.pager().ResetStats();
    if (!b.db.Delete(victim).ok()) continue;
    total += static_cast<double>(b.db.pager().stats().total());
    ++done;
  }
  return done > 0 ? total / done : 0;
}

void RunOrg(IndexOrg org, pathix_bench::BenchJson* json) {
  Bench b;
  CheckOk(b.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, org}})));

  // Analytic model over the *collected* statistics with a query-only load
  // binding (the load only matters for subpath costs, not per-op costs).
  LoadDistribution load;
  const PathContext ctx =
      PathContext::Build(b.setup.schema, b.setup.path, b.catalog, load)
          .value();
  const std::unique_ptr<OrgCostModel> model = MakeOrgCostModel(org, ctx, 1, 4);

  std::vector<Row> rows;
  rows.push_back({"query w.r.t. Person", model->QueryCost(1, 0),
                  MeasureQueries(b, b.setup.person, 50)});
  rows.push_back({"query w.r.t. Vehicle", model->QueryCost(2, 0),
                  MeasureQueries(b, b.setup.vehicle, 50)});
  rows.push_back({"query w.r.t. Division", model->QueryCost(4, 0),
                  MeasureQueries(b, b.setup.division, 50)});
  rows.push_back(
      {"insert Vehicle", model->InsertCost(2, 0),
       MeasureInserts(b, b.setup.vehicle, "man", b.created[b.setup.company],
                      40, 3)});
  rows.push_back(
      {"insert Person", model->InsertCost(1, 0),
       MeasureInserts(b, b.setup.person, "owns", b.created[b.setup.vehicle],
                      40, 1)});
  std::vector<Oid> vehicles = b.created[b.setup.vehicle];
  rows.push_back({"delete Vehicle", model->DeleteCost(2, 0),
                  MeasureDeletes(b, &vehicles, 40)});
  std::vector<Oid> persons = b.created[b.setup.person];
  rows.push_back({"delete Person", model->DeleteCost(1, 0),
                  MeasureDeletes(b, &persons, 40)});
  std::vector<Oid> companies = b.created[b.setup.company];
  rows.push_back({"delete Company", model->DeleteCost(3, 0),
                  MeasureDeletes(b, &companies, 20)});

  std::printf("--- %s (whole path) ---\n", ToString(org));
  std::printf("  %-24s %10s %10s %8s\n", "operation", "model", "measured",
              "ratio");
  double worst_ratio = 1;
  for (const Row& row : rows) {
    const double ratio = row.measured > 0 ? row.model / row.measured : 0;
    std::printf("  %-24s %10.2f %10.2f %8.2f\n", row.op, row.model,
                row.measured, ratio);
    if (ratio > 0) {
      worst_ratio = std::max(worst_ratio, std::max(ratio, 1 / ratio));
    }
  }
  std::printf("\n");
  const std::string prefix = ToString(org);
  json->Add(prefix + "_query_person_model", rows[0].model);
  json->Add(prefix + "_query_person_measured", rows[0].measured);
  json->Add(prefix + "_worst_model_vs_measured_factor", worst_ratio);
}

void RankingCheck(pathix_bench::BenchJson* json) {
  // The model's raison d'etre: does it rank organizations like the
  // simulator does, per operation class?
  double q_measured[3];
  double q_model[3];
  const IndexOrg orgs[] = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX};
  for (int i = 0; i < 3; ++i) {
    Bench b;
    CheckOk(b.db.ConfigureIndexes(
        kPeople, IndexConfiguration({{Subpath{1, 4}, orgs[i]}})));
    LoadDistribution load;
    const PathContext ctx =
        PathContext::Build(b.setup.schema, b.setup.path, b.catalog, load)
            .value();
    q_model[i] = MakeOrgCostModel(orgs[i], ctx, 1, 4)->QueryCost(1, 0);
    q_measured[i] = MeasureQueries(b, b.setup.person, 50);
  }
  std::printf("--- ranking check: query w.r.t. Person ---\n");
  std::printf("  %-6s %10s %10s\n", "org", "model", "measured");
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-6s %10.2f %10.2f\n", ToString(orgs[i]), q_model[i],
                q_measured[i]);
  }
  const bool model_nix_wins = q_model[2] < q_model[0] && q_model[2] < q_model[1];
  const bool sim_nix_wins =
      q_measured[2] < q_measured[0] && q_measured[2] < q_measured[1];
  std::printf("  NIX cheapest for deep queries: model=%s simulator=%s\n\n",
              model_nix_wins ? "yes" : "no", sim_nix_wins ? "yes" : "no");
  json->Add("ranking_agrees", model_nix_wins == sim_nix_wins ? 1 : 0);
}

}  // namespace

int main() {
  std::cout << "=== Cost-model validation against the page-level simulator "
               "===\n(1/10-scale Figure 7 database: 22,100 objects; "
               "statistics collected from the store)\n\n";
  pathix_bench::BenchJson json("bench_validation");
  RunOrg(IndexOrg::kMX, &json);
  RunOrg(IndexOrg::kMIX, &json);
  RunOrg(IndexOrg::kNIX, &json);
  RankingCheck(&json);
  json.Write();
  return 0;
}
