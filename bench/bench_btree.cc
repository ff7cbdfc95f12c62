// Micro-benchmarks of the physical substrate: B+-tree operations, index
// probes, and indexed-vs-naive path evaluation wall-clock (the paper's
// metric is page accesses; these timings sanity-check that the simulator
// is usable at experiment scale).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "bench_json_gbench.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "exec/database.h"
#include "index/btree.h"

namespace {

using namespace pathix;

void BM_BTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(4096);
    PostingTree tree(&pager, "bench");
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      tree.Upsert(
          Key::FromInt(i),
          [&] {
            PostingRecord rec;
            rec.key_value = Key::FromInt(i);
            return rec;
          },
          [&](PostingRecord* rec) {
            rec->postings.push_back(Posting{0, static_cast<Oid>(i), 1});
          });
    }
    benchmark::DoNotOptimize(tree.num_records());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Pager pager(4096);
  PostingTree tree(&pager, "bench");
  for (int i = 0; i < n; ++i) {
    tree.Upsert(
        Key::FromInt(i),
        [&] {
          PostingRecord rec;
          rec.key_value = Key::FromInt(i);
          return rec;
        },
        [&](PostingRecord* rec) {
          rec->postings.push_back(Posting{0, static_cast<Oid>(i), 1});
        });
  }
  std::mt19937 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(Key::FromInt(static_cast<int>(rng() % n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

// A batched probe of ascending oid keys (one MX/MIX level, or a NIX fed by
// the next subpath's oids) on a 100k-record tree: the sorted walk
// (walk:1) against per-key Lookups under one BatchCharge (walk:0). Both
// charge the same pages; items are keys. keys:1 is a query constant's
// probe, which needs no BatchCharge: its walk:0 row is one plain Lookup.
void BM_BTreeSortedProbe(benchmark::State& state) {
  constexpr Oid kRecords = 100000;
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  const bool walk = state.range(1) != 0;
  Pager pager(4096);
  PostingTree tree(&pager, "bench");
  for (Oid oid = 1; oid <= kRecords; ++oid) {
    tree.Upsert(
        Key::FromOid(oid),
        [&] {
          PostingRecord rec;
          rec.key_value = Key::FromOid(oid);
          return rec;
        },
        [&](PostingRecord* rec) { rec->AddOrBump(0, oid, 1); });
  }
  std::mt19937 rng(5);
  std::vector<std::vector<Key>> batches(16);
  for (std::vector<Key>& keys : batches) {
    std::vector<Oid> oids(batch_size);
    for (Oid& oid : oids) oid = 1 + rng() % kRecords;
    std::sort(oids.begin(), oids.end());
    oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
    for (Oid oid : oids) keys.push_back(Key::FromOid(oid));
  }
  std::size_t next = 0;
  std::int64_t keys_probed = 0;
  std::size_t found = 0;
  for (auto _ : state) {
    const std::vector<Key>& keys = batches[next++ % batches.size()];
    if (walk) {
      tree.LookupSorted(keys, WholeRecord{}, [&](const PostingRecord& rec) {
        found += rec.postings.size();
      });
    } else {
      BatchCharge charge;
      BatchCharge* batch = keys.size() > 1 ? &charge : nullptr;
      for (const Key& key : keys) {
        if (const PostingRecord* rec = tree.Lookup(key, batch)) {
          found += rec->postings.size();
        }
      }
    }
    benchmark::DoNotOptimize(found);
    keys_probed += static_cast<std::int64_t>(keys.size());
  }
  state.SetItemsProcessed(keys_probed);
}
BENCHMARK(BM_BTreeSortedProbe)
    ->ArgNames({"keys", "walk"})
    ->ArgsProduct({{1, 64, 512}, {0, 1}});

constexpr char kPeople[] = "people";

/// Example 5.1's path, populated; \p scale multiplies every class's
/// object count (the ending values stay 25).
struct SimFixtureState {
  explicit SimFixtureState(int scale = 1)
      : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(11);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 50 * scale, 25, 1.0},
                     {setup.company, 50 * scale, 0, 2.0},
                     {setup.vehicle, 200 * scale, 0, 1.5},
                     {setup.bus, 100 * scale, 0, 1.0},
                     {setup.truck, 100 * scale, 0, 1.0},
                     {setup.person, 2000 * scale, 0, 1.5},
                 });
  }
  PaperSetup setup;
  SimDatabase db;
};

/// The population the build rows run on: 20,000 people, as many as
/// perfbench populates.
constexpr int kBuildScale = 10;

/// One part build per iteration: ConfigureIndexes drops the path's
/// configuration and builds its parts afresh (the NONE parts around the
/// measured one build nothing, but count in built_per_iter). Times stay in
/// ns: the JSON line names every row's time *_real_ns.
void BM_PartBuild(benchmark::State& state, IndexConfiguration config) {
  SimFixtureState s(kBuildScale);
  const std::uint64_t built_before = s.db.registry().parts_built();
  for (auto _ : state) {
    CheckOk(s.db.ConfigureIndexes(kPeople, config));
  }
  state.counters["built_per_iter"] = static_cast<double>(
      s.db.registry().parts_built() - built_before) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PartBuild, nix_1_2,
                  IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                      {Subpath{3, 4}, IndexOrg::kNone}}));
BENCHMARK_CAPTURE(BM_PartBuild, mx_1_1,
                  IndexConfiguration({{Subpath{1, 1}, IndexOrg::kMX},
                                      {Subpath{2, 4}, IndexOrg::kNone}}));
BENCHMARK_CAPTURE(BM_PartBuild, mix_2_2,
                  IndexConfiguration({{Subpath{1, 1}, IndexOrg::kNone},
                                      {Subpath{2, 2}, IndexOrg::kMIX},
                                      {Subpath{3, 4}, IndexOrg::kNone}}));

/// ANALYZE of the whole path on the build rows' population.
void BM_Analyze(benchmark::State& state) {
  SimFixtureState s(kBuildScale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CollectStatistics(
        s.db.store(), s.setup.schema, s.setup.path, PhysicalParams{}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Analyze);

void BM_IndexedPathQuery(benchmark::State& state) {
  SimFixtureState s;
  CheckOk(s.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                   {Subpath{3, 4}, IndexOrg::kMX}})));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.db.Query(
        kPeople, Key::FromString(EndingValue(i++ % 25)), s.setup.person));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPathQuery);

void BM_NaivePathQuery(benchmark::State& state) {
  SimFixtureState s;
  CheckOk(s.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.db.QueryNaive(
        kPeople, Key::FromString(EndingValue(i++ % 25)), s.setup.person));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaivePathQuery);

void BM_NIXMaintenanceInsert(benchmark::State& state) {
  SimFixtureState s;
  CheckOk(s.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));
  const std::vector<Oid> vehicles = s.db.store().PeekAll(s.setup.vehicle);
  std::mt19937 rng(3);
  for (auto _ : state) {
    AttrValues attrs;
    attrs["owns"] = {Value::Ref(vehicles[rng() % vehicles.size()])};
    benchmark::DoNotOptimize(s.db.Insert(s.setup.person, std::move(attrs)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NIXMaintenanceInsert);

}  // namespace

int main(int argc, char** argv) {
  pathix_bench::BenchJson json("bench_btree");
  pathix_bench::JsonLineReporter reporter(&json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.Write();
  return 0;
}
