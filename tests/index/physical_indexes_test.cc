#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/nix_index.h"

namespace pathix {
namespace {

constexpr int kDistinctNames = 15;
constexpr char kPeople[] = "people";

/// Builds a populated vehicle database (Figure 1 shape, small scale).
struct TestDb {
  TestDb() : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(/*seed=*/1234);
    created = gen.Populate(
        &db, setup.path,
        {
            {setup.division, 40, kDistinctNames, 1.0},
            {setup.company, 30, 0, 2.0},
            {setup.vehicle, 40, 0, 1.5},
            {setup.bus, 20, 0, 1.0},
            {setup.truck, 20, 0, 1.0},
            {setup.person, 120, 0, 1.5},
        });
  }

  PaperSetup setup;
  SimDatabase db;
  std::map<ClassId, std::vector<Oid>> created;
};

IndexConfiguration WholePath(IndexOrg org) {
  return IndexConfiguration({{Subpath{1, 4}, org}});
}

IndexConfiguration PaperOptimal() {
  return IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                             {Subpath{3, 4}, IndexOrg::kMX}});
}

std::vector<Oid> Sorted(std::vector<Oid> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class PhysicalConfigTest
    : public ::testing::TestWithParam<IndexConfiguration> {};

TEST_P(PhysicalConfigTest, IndexedMatchesNaiveForEveryValueAndClass) {
  TestDb t;
  ASSERT_TRUE(t.db.ConfigureIndexes(kPeople, GetParam()).ok());
  ASSERT_TRUE(t.db.ValidateIndexesDeep().ok())
      << t.db.ValidateIndexesDeep().ToString();

  const std::vector<ClassId> targets = {t.setup.person, t.setup.vehicle,
                                        t.setup.bus,    t.setup.truck,
                                        t.setup.company, t.setup.division};
  for (int i = 0; i < kDistinctNames; ++i) {
    const Key value = Key::FromString(EndingValue(i));
    for (ClassId target : targets) {
      for (bool subclasses : {false, true}) {
        auto indexed = t.db.Query(kPeople, value, target, subclasses);
        auto naive = t.db.QueryNaive(kPeople, value, target, subclasses);
        ASSERT_TRUE(indexed.ok());
        ASSERT_TRUE(naive.ok());
        ASSERT_EQ(indexed.value(), Sorted(naive.value()))
            << "value=" << value.ToString() << " target=" << target
            << " subclasses=" << subclasses;
      }
    }
  }
}

TEST_P(PhysicalConfigTest, StaysConsistentUnderRandomUpdates) {
  TestDb t;
  ASSERT_TRUE(t.db.ConfigureIndexes(kPeople, GetParam()).ok());

  std::mt19937 rng(777);
  std::vector<ClassId> classes = {t.setup.person, t.setup.vehicle,
                                  t.setup.bus,    t.setup.truck,
                                  t.setup.company, t.setup.division};
  // Live oids per class (mirrors the store).
  std::map<ClassId, std::vector<Oid>> live = t.created;

  auto random_live = [&](ClassId cls) -> Oid {
    auto& v = live[cls];
    if (v.empty()) return kInvalidOid;
    return v[rng() % v.size()];
  };

  for (int step = 0; step < 300; ++step) {
    const ClassId cls = classes[rng() % classes.size()];
    if (rng() % 2 == 0) {
      // Insert an object with valid references / values.
      AttrValues attrs;
      if (cls == t.setup.division) {
        attrs["name"] = {Value::Str(EndingValue(rng() % kDistinctNames))};
      } else if (cls == t.setup.company) {
        const Oid d = random_live(t.setup.division);
        if (d == kInvalidOid) continue;
        attrs["divs"] = {Value::Ref(d)};
      } else if (cls == t.setup.person) {
        std::vector<Value> owns;
        for (ClassId vcls : {t.setup.vehicle, t.setup.bus}) {
          const Oid v = random_live(vcls);
          if (v != kInvalidOid) owns.push_back(Value::Ref(v));
        }
        if (owns.empty()) continue;
        attrs["owns"] = owns;
      } else {  // vehicle kinds
        const Oid c = random_live(t.setup.company);
        if (c == kInvalidOid) continue;
        attrs["man"] = {Value::Ref(c)};
      }
      live[cls].push_back(t.db.Insert(cls, std::move(attrs)));
    } else {
      const Oid victim = random_live(cls);
      if (victim == kInvalidOid) continue;
      ASSERT_TRUE(t.db.Delete(victim).ok());
      auto& v = live[cls];
      v.erase(std::remove(v.begin(), v.end(), victim), v.end());
    }

    if (step % 50 == 49) {
      ASSERT_TRUE(t.db.ValidateIndexesDeep().ok())
          << "step " << step << ": "
          << t.db.ValidateIndexesDeep().ToString();
    }
  }

  // Final full equivalence sweep, w.r.t. each class alone (a one-key,
  // one-class NIX probe copies a record's slice without sorting it) and
  // with its subclasses. The indexed side is compared unsorted: probes
  // return increasing, duplicate-free oids.
  ASSERT_TRUE(t.db.ValidateIndexesDeep().ok())
      << t.db.ValidateIndexesDeep().ToString();
  for (int i = 0; i < kDistinctNames; ++i) {
    const Key value = Key::FromString(EndingValue(i));
    for (ClassId target : classes) {
      for (bool subclasses : {false, true}) {
        auto indexed = t.db.Query(kPeople, value, target, subclasses);
        auto naive = t.db.QueryNaive(kPeople, value, target, subclasses);
        ASSERT_TRUE(indexed.ok());
        ASSERT_TRUE(naive.ok());
        ASSERT_EQ(indexed.value(), Sorted(naive.value()))
            << "value=" << value.ToString() << " target=" << target
            << " subclasses=" << subclasses;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PhysicalConfigTest,
    ::testing::Values(WholePath(IndexOrg::kMX), WholePath(IndexOrg::kMIX),
                      WholePath(IndexOrg::kNIX), PaperOptimal(),
                      IndexConfiguration({{Subpath{1, 1}, IndexOrg::kMX},
                                          {Subpath{2, 3}, IndexOrg::kMIX},
                                          {Subpath{4, 4}, IndexOrg::kNIX}}),
                      IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNone},
                                          {Subpath{3, 4}, IndexOrg::kMIX}})),
    [](const ::testing::TestParamInfo<IndexConfiguration>& param_info) {
      std::string name = param_info.param.ToString();
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
        else if (c == ',' || c == ')') out += '_';
      }
      return out;
    });

// ------------------------------------------------------- counting shapes

TEST(PhysicalCountingTest, NIXQueriesAreCheaperThanMXChains) {
  TestDb t_nix;
  ASSERT_TRUE(
      t_nix.db.ConfigureIndexes(kPeople, WholePath(IndexOrg::kNIX)).ok());
  TestDb t_mx;
  ASSERT_TRUE(t_mx.db.ConfigureIndexes(kPeople, WholePath(IndexOrg::kMX)).ok());

  std::uint64_t nix_reads = 0;
  std::uint64_t mx_reads = 0;
  for (int i = 0; i < kDistinctNames; ++i) {
    const Key value = Key::FromString(EndingValue(i));
    t_nix.db.pager().ResetStats();
    ASSERT_TRUE(t_nix.db.Query(kPeople, value, t_nix.setup.person).ok());
    nix_reads += t_nix.db.pager().stats().total();
    t_mx.db.pager().ResetStats();
    ASSERT_TRUE(t_mx.db.Query(kPeople, value, t_mx.setup.person).ok());
    mx_reads += t_mx.db.pager().stats().total();
  }
  // The paper's central premise: one primary probe beats a 4-level chain
  // through 6 class indexes.
  EXPECT_LT(nix_reads, mx_reads);
}

TEST(PhysicalCountingTest, NaiveEvaluationIsFarMoreExpensive) {
  TestDb t;
  ASSERT_TRUE(t.db.ConfigureIndexes(kPeople, PaperOptimal()).ok());
  const Key value = Key::FromString(EndingValue(3));

  t.db.pager().ResetStats();
  auto indexed = t.db.Query(kPeople, value, t.setup.person);
  const std::uint64_t indexed_cost = t.db.pager().stats().total();

  t.db.pager().ResetStats();
  auto naive = t.db.QueryNaive(kPeople, value, t.setup.person);
  const std::uint64_t naive_cost = t.db.pager().stats().total();

  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(Sorted(indexed.value()), Sorted(naive.value()));
  EXPECT_GT(naive_cost, 2 * indexed_cost);
}

TEST(PhysicalCountingTest, IndexStoragePagesAreReported) {
  TestDb t;
  ASSERT_TRUE(t.db.ConfigureIndexes(kPeople, PaperOptimal()).ok());
  EXPECT_GT(t.db.physical(kPeople).total_pages(), 4u);
}

// --------------------------------------------------------- NIX specifics

TEST(SortUniqueOidsTest, MatchesSortAndUnique) {
  // Both sides of the comparison-sort cutoff, oids of 1 to 40 bits in use
  // (one to five radix passes, some over a digit every oid shares), many
  // duplicates.
  std::mt19937_64 rng(17);
  for (std::size_t n : {0, 1, 2, 63, 64, 65, 300, 5000}) {
    for (int bits : {1, 8, 17, 40}) {
      std::vector<Oid> oids(n);
      for (Oid& oid : oids) {
        oid = (Oid{1} << (bits - 1)) | (rng() & ((Oid{1} << bits) - 1));
      }
      std::vector<Oid> want = oids;
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      SortUniqueOids(&oids);
      EXPECT_EQ(oids, want) << "n=" << n << " bits=" << bits;
    }
  }
}

TEST(NIXPhysicalTest, NumchildDrivesDeferredRemoval) {
  // Hand-built micro scenario: one Person owning two Buses made by the
  // same Company. Removing one Bus must keep the Person posted under the
  // company's division names (numchild 2 -> 1); removing the second Bus
  // must drop the Person (numchild 0).
  ClassId per, veh, bus, truck, comp, divi;
  Schema schema = MakePaperSchema(&per, &veh, &bus, &truck, &comp, &divi);
  const Path path =
      Path::Create(schema, per, {"owns", "man", "divs", "name"}).value();
  SimDatabase db(schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, path));

  const Oid d1 = db.Insert(divi, {{"name", {Value::Str("alpha")}}});
  const Oid c1 = db.Insert(comp, {{"divs", {Value::Ref(d1)}}});
  const Oid b1 = db.Insert(bus, {{"man", {Value::Ref(c1)}}});
  const Oid b2 = db.Insert(bus, {{"man", {Value::Ref(c1)}}});
  const Oid p1 =
      db.Insert(per, {{"owns", {Value::Ref(b1), Value::Ref(b2)}}});

  ASSERT_TRUE(db.ConfigureIndexes(kPeople, WholePath(IndexOrg::kNIX)).ok());
  ASSERT_TRUE(db.ValidateIndexesDeep().ok());

  const Key alpha = Key::FromString("alpha");
  EXPECT_EQ(db.Query(kPeople, alpha, per).value(), (std::vector<Oid>{p1}));

  ASSERT_TRUE(db.Delete(b1).ok());
  ASSERT_TRUE(db.ValidateIndexesDeep().ok())
      << db.ValidateIndexesDeep().ToString();
  EXPECT_EQ(db.Query(kPeople, alpha, per).value(), (std::vector<Oid>{p1}));

  ASSERT_TRUE(db.Delete(b2).ok());
  ASSERT_TRUE(db.ValidateIndexesDeep().ok())
      << db.ValidateIndexesDeep().ToString();
  EXPECT_TRUE(db.Query(kPeople, alpha, per).value().empty());
}

TEST(NIXPhysicalTest, BoundaryDeleteDropsKeyRecordAndPointers) {
  ClassId per, veh, bus, truck, comp, divi;
  Schema schema = MakePaperSchema(&per, &veh, &bus, &truck, &comp, &divi);
  const Path path =
      Path::Create(schema, per, {"owns", "man", "divs", "name"}).value();
  SimDatabase db(schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, path));

  const Oid d1 = db.Insert(divi, {{"name", {Value::Str("alpha")}}});
  const Oid c1 = db.Insert(comp, {{"divs", {Value::Ref(d1)}}});
  const Oid v1 = db.Insert(veh, {{"man", {Value::Ref(c1)}}});
  const Oid p1 = db.Insert(per, {{"owns", {Value::Ref(v1)}}});
  (void)p1;

  // Split configuration: the NIX on [1,2] is keyed by Company oids.
  ASSERT_TRUE(db.ConfigureIndexes(kPeople, PaperOptimal()).ok());
  ASSERT_TRUE(db.ValidateIndexesDeep().ok());

  // Deleting the company triggers OnBoundaryDelete on the NIX.
  ASSERT_TRUE(db.Delete(c1).ok());
  ASSERT_TRUE(db.ValidateIndexesDeep().ok())
      << db.ValidateIndexesDeep().ToString();
  EXPECT_TRUE(db.Query(kPeople, Key::FromString("alpha"), per).value().empty());
  EXPECT_EQ(db.Query(kPeople, Key::FromString("alpha"), divi).value(),
            (std::vector<Oid>{d1}));
}

TEST(NIXPhysicalTest, InsertWiresParentsThroughAuxIndex) {
  ClassId per, veh, bus, truck, comp, divi;
  Schema schema = MakePaperSchema(&per, &veh, &bus, &truck, &comp, &divi);
  const Path path =
      Path::Create(schema, per, {"owns", "man", "divs", "name"}).value();
  SimDatabase db(schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, path));

  const Oid d1 = db.Insert(divi, {{"name", {Value::Str("alpha")}}});
  const Oid c1 = db.Insert(comp, {{"divs", {Value::Ref(d1)}}});
  ASSERT_TRUE(db.ConfigureIndexes(kPeople, WholePath(IndexOrg::kNIX)).ok());

  // Insert a vehicle, then a person, after the index exists.
  const Oid v1 = db.Insert(veh, {{"man", {Value::Ref(c1)}}});
  const Oid p1 = db.Insert(per, {{"owns", {Value::Ref(v1)}}});
  ASSERT_TRUE(db.ValidateIndexesDeep().ok())
      << db.ValidateIndexesDeep().ToString();
  EXPECT_EQ(db.Query(kPeople, Key::FromString("alpha"), per).value(),
            (std::vector<Oid>{p1}));
  EXPECT_EQ(db.Query(kPeople, Key::FromString("alpha"), veh).value(),
            (std::vector<Oid>{v1}));
}

}  // namespace
}  // namespace pathix
