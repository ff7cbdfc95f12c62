#include "exec/analyze.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"

namespace pathix {
namespace {

class AnalyzeTest : public ::testing::Test {
 protected:
  AnalyzeTest() : setup_(MakeExample51Setup()),
                  db_(setup_.schema, PhysicalParams{}) {}

  PaperSetup setup_;
  SimDatabase db_;
};

TEST_F(AnalyzeTest, CountsMatchThePopulation) {
  PathDataGenerator gen(5);
  gen.Populate(&db_, setup_.path,
               {
                   {setup_.division, 30, 10, 1.0},
                   {setup_.company, 20, 0, 2.0},
                   {setup_.vehicle, 40, 0, 1.0},
                   {setup_.person, 80, 0, 1.0},
               });
  const Catalog catalog = CollectStatistics(db_.store(), setup_.schema,
                                            setup_.path, PhysicalParams{});
  EXPECT_DOUBLE_EQ(catalog.GetClassStats(setup_.division).n, 30);
  EXPECT_DOUBLE_EQ(catalog.GetClassStats(setup_.company).n, 20);
  EXPECT_DOUBLE_EQ(catalog.GetClassStats(setup_.vehicle).n, 40);
  EXPECT_DOUBLE_EQ(catalog.GetClassStats(setup_.person).n, 80);
  // Unpopulated subclasses exist with zero objects.
  EXPECT_DOUBLE_EQ(catalog.GetClassStats(setup_.bus).n, 0);
}

TEST_F(AnalyzeTest, DistinctAndFanOutFollowTheData) {
  PathDataGenerator gen(6);
  gen.Populate(&db_, setup_.path,
               {
                   {setup_.division, 200, 10, 1.0},
                   {setup_.company, 100, 0, 3.0},
               });
  const Catalog catalog = CollectStatistics(db_.store(), setup_.schema,
                                            setup_.path, PhysicalParams{});
  const ClassStats div = catalog.GetClassStats(setup_.division);
  EXPECT_LE(div.d, 10);
  EXPECT_GE(div.d, 8);  // 200 draws over 10 values
  EXPECT_DOUBLE_EQ(div.nin, 1);
  const ClassStats comp = catalog.GetClassStats(setup_.company);
  EXPECT_NEAR(comp.nin, 3.0, 0.01);  // integral nin is exact
  EXPECT_GT(comp.obj_len, 8);
}

TEST_F(AnalyzeTest, DanglingReferencesAreIgnored) {
  const Oid d1 =
      db_.Insert(setup_.division, {{"name", {Value::Str("alpha")}}});
  const Oid d2 =
      db_.Insert(setup_.division, {{"name", {Value::Str("beta")}}});
  db_.Insert(setup_.company,
             {{"divs", {Value::Ref(d1), Value::Ref(d2)}}});
  CheckOk(db_.store().Delete(d2));
  const Catalog catalog = CollectStatistics(db_.store(), setup_.schema,
                                            setup_.path, PhysicalParams{});
  const ClassStats comp = catalog.GetClassStats(setup_.company);
  // Only the live reference counts towards d and nin.
  EXPECT_DOUBLE_EQ(comp.d, 1);
  EXPECT_DOUBLE_EQ(comp.nin, 1);
}

TEST_F(AnalyzeTest, CollectedStatsDriveTheAdvisor) {
  PathDataGenerator gen(7);
  gen.Populate(&db_, setup_.path,
               {
                   {setup_.division, 50, 25, 1.0},
                   {setup_.company, 40, 0, 2.0},
                   {setup_.vehicle, 60, 0, 1.5},
                   {setup_.bus, 30, 0, 1.0},
                   {setup_.truck, 30, 0, 1.0},
                   {setup_.person, 300, 0, 1.5},
               });
  const Catalog catalog = CollectStatistics(db_.store(), setup_.schema,
                                            setup_.path, PhysicalParams{});
  Result<PathContext> ctx = PathContext::Build(setup_.schema, setup_.path,
                                               catalog, setup_.load);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  // Derived statistics are finite and positive end to end.
  for (int l = 1; l <= 4; ++l) {
    EXPECT_GT(ctx.value().S(l), 0) << l;
  }
  EXPECT_GT(ctx.value().noidplus(1), 0);
}

/// The reference ANALYZE of one class: a PeekAll snapshot, a PeekRef per
/// oid and per reference, and a std::set of the values' ToString for the
/// distinct count.
ClassStats ReferenceClassStats(const ObjectStore& store, ClassId cls,
                               const std::string& attr) {
  const std::vector<Oid> oids = store.PeekAll(cls);
  ClassStats stats;
  stats.n = static_cast<double>(oids.size());
  std::set<std::string> distinct;
  double total_values = 0;
  double total_bytes = 0;
  for (Oid oid : oids) {
    const std::shared_ptr<const Object> obj = store.PeekRef(oid);
    if (obj == nullptr) continue;
    total_bytes += static_cast<double>(obj->bytes());
    for (const Value& v : obj->values(attr)) {
      if (v.kind() == Value::Kind::kRef &&
          store.PeekRef(v.as_ref()) == nullptr) {
        continue;
      }
      total_values += 1;
      distinct.insert(Key::FromValue(v).ToString());
    }
  }
  stats.d = std::max<double>(1.0, static_cast<double>(distinct.size()));
  stats.nin = stats.n > 0 ? std::max(1.0, total_values / stats.n) : 1.0;
  stats.obj_len = stats.n > 0 ? total_bytes / stats.n : 64.0;
  return stats;
}

void ExpectSameStats(const ClassStats& got, const ClassStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.n, want.n) << where;
  EXPECT_EQ(got.d, want.d) << where;
  EXPECT_EQ(got.nin, want.nin) << where;
  EXPECT_EQ(got.obj_len, want.obj_len) << where;
}

// Two paths over one schema, one ending in a string attribute and one in
// an int attribute, on a store with dangling references (a deleted
// referenced Vehicle and Company), an object holding one value twice, and
// segment space freed by deletes and refilled by later inserts.
TEST(AnalyzeReferenceTest, EveryFieldMatchesTheReferenceCollection) {
  Schema schema;
  const ClassId person = schema.AddClass("Person").value();
  const ClassId vehicle = schema.AddClass("Vehicle").value();
  const ClassId bus = schema.AddClass("Bus", vehicle).value();
  const ClassId company = schema.AddClass("Company").value();
  CheckOk(schema.AddReferenceAttribute(person, "owns", vehicle, true));
  CheckOk(schema.AddReferenceAttribute(vehicle, "man", company, true));
  CheckOk(schema.AddAtomicAttribute(company, "name", AtomicType::kString,
                                    true));
  CheckOk(schema.AddAtomicAttribute(company, "size", AtomicType::kInt, true));
  const Path names =
      Path::Create(schema, person, {"owns", "man", "name"}).value();
  const Path sizes =
      Path::Create(schema, person, {"owns", "man", "size"}).value();
  SimDatabase db(schema, PhysicalParams{});

  std::vector<Oid> companies;
  for (int i = 0; i < 40; ++i) {
    AttrValues attrs;
    attrs["name"] = {Value::Str("c" + std::to_string(i % 13))};
    attrs["size"] = {Value::Int(i % 7), Value::Int(100 + i % 3)};
    // One value held twice.
    if (i % 5 == 0) attrs["name"].push_back(attrs["name"].front());
    companies.push_back(db.Insert(company, std::move(attrs)));
  }
  std::vector<Oid> vehicles;
  for (std::size_t i = 0; i < 120; ++i) {
    AttrValues attrs;
    attrs["man"] = {Value::Ref(companies[i % 40]),
                    Value::Ref(companies[i * 7 % 40])};
    vehicles.push_back(db.Insert(i % 3 == 0 ? bus : vehicle, std::move(attrs)));
  }
  std::vector<Oid> people;
  for (std::size_t i = 0; i < 300; ++i) {
    AttrValues attrs;
    attrs["owns"] = {Value::Ref(vehicles[i % 120])};
    if (i % 4 == 0) attrs["owns"].push_back(Value::Ref(vehicles[i * 11 % 120]));
    people.push_back(db.Insert(person, std::move(attrs)));
  }
  // Dangling references: a referenced Company and a referenced Vehicle go.
  CheckOk(db.Delete(companies[3]));
  CheckOk(db.Delete(vehicles[5]));
  // Free segment space across the classes, then refill it.
  for (std::size_t i = 0; i < people.size(); i += 9) {
    CheckOk(db.Delete(people[i]));
  }
  for (std::size_t i = 1; i < vehicles.size(); i += 17) {
    if (i != 5) CheckOk(db.Delete(vehicles[i]));
  }
  for (std::size_t i = 0; i < 40; ++i) {
    AttrValues attrs;
    attrs["owns"] = {Value::Ref(vehicles[i * 3])};
    db.Insert(person, std::move(attrs));
  }
  for (int i = 0; i < 5; ++i) {
    AttrValues attrs;
    attrs["man"] = {Value::Ref(companies[3]), Value::Ref(companies[4])};
    db.Insert(bus, std::move(attrs));
  }

  for (const Path* path : {&names, &sizes}) {
    const Catalog collected =
        CollectStatistics(db.store(), schema, *path, PhysicalParams{});
    Catalog refreshed(PhysicalParams{});
    const std::set<ClassId> all = {person, vehicle, bus, company};
    EXPECT_EQ(RefreshStatistics(db.store(), schema, *path, all, &refreshed),
              4);
    for (int l = 1; l <= path->length(); ++l) {
      const std::string& attr = path->attribute_at(l).name;
      for (ClassId cls : schema.HierarchyOf(path->class_at(l))) {
        const std::string where =
            schema.GetClass(cls).name() + "." + attr;
        const ClassStats want = ReferenceClassStats(db.store(), cls, attr);
        ExpectSameStats(collected.GetClassStats(cls, attr), want, where);
        ExpectSameStats(collected.GetClassStats(cls), want, where);
        ExpectSameStats(refreshed.GetClassStats(cls, attr), want, where);
      }
    }
  }
}

}  // namespace
}  // namespace pathix
