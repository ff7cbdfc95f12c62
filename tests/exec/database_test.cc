#include "exec/database.h"

#include <gtest/gtest.h>

#include "datagen/paper_schema.h"

namespace pathix {
namespace {

constexpr char kPeople[] = "people";

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest()
      : setup_(MakeExample51Setup()), db_(setup_.schema, PhysicalParams{}) {
    CheckOk(db_.RegisterPath(kPeople, setup_.path));
  }

  Oid MakeChain(const std::string& name) {
    const Oid d = db_.Insert(setup_.division, {{"name", {Value::Str(name)}}});
    const Oid c = db_.Insert(setup_.company, {{"divs", {Value::Ref(d)}}});
    const Oid v = db_.Insert(setup_.vehicle, {{"man", {Value::Ref(c)}}});
    return db_.Insert(setup_.person, {{"owns", {Value::Ref(v)}}});
  }

  PaperSetup setup_;
  SimDatabase db_;
};

TEST_F(DatabaseTest, QueryOnUnconfiguredPathFails) {
  const Oid p = MakeChain("x");
  // Query only evaluates through an installed configuration...
  Result<std::vector<Oid>> r =
      db_.Query(kPeople, Key::FromString("x"), setup_.person);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // ...QueryAny falls back to the naive scan, answering what QueryNaive does.
  const Result<SimDatabase::QueryOutcome> any =
      db_.QueryAny(kPeople, Key::FromString("x"), setup_.person);
  ASSERT_TRUE(any.ok()) << any.status().ToString();
  EXPECT_TRUE(any.value().naive);
  EXPECT_EQ(any.value().oids, (std::vector<Oid>{p}));
  EXPECT_EQ(any.value().oids,
            db_.QueryNaive(kPeople, Key::FromString("x"), setup_.person)
                .value());
}

TEST_F(DatabaseTest, UnregisteredPathIdFails) {
  MakeChain("x");
  const PathId unknown = "nowhere";
  const Key key = Key::FromString("x");
  const IndexConfiguration mix({{Subpath{1, 4}, IndexOrg::kMIX}});
  obs::Counter& epochs =
      db_.metrics().CounterAt("pathix_db_config_epochs_total");
  const double epochs_before = epochs.Value();

  EXPECT_EQ(db_.Query(unknown, key, setup_.person).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.QueryNaive(unknown, key, setup_.person).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.QueryAny(unknown, key, setup_.person).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.ConfigureIndexes(unknown, mix).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db_.ReconfigureIndexes(unknown, mix).code(),
            StatusCode::kFailedPrecondition);
  // A batch naming one unknown id fails as a whole, before any build.
  EXPECT_EQ(db_.ReconfigureIndexes({{kPeople, mix}, {unknown, mix}}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db_.has_indexes(kPeople));
  EXPECT_FALSE(db_.has_path(unknown));
  EXPECT_EQ(epochs.Value(), epochs_before);
}

TEST_F(DatabaseTest, DeleteUnknownOidFails) {
  EXPECT_EQ(db_.Delete(4242).code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, ConfigureRejectsInvalidConfiguration) {
  const Status s = db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 3}, IndexOrg::kMX}}));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(db_.has_indexes(kPeople));
}

TEST_F(DatabaseTest, ConfigureRejectsModelOnlyOrganizations) {
  const Status s = db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kPX}}));
  EXPECT_FALSE(s.ok());
}

TEST_F(DatabaseTest, NoneSubpathEvaluatesNavigationally) {
  const Oid p = MakeChain("nav");
  // Hybrid: no index on the prefix, MX on the tail (the paper's "no index
  // on a subpath" extension, physically realized by scanning).
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNone},
                                   {Subpath{3, 4}, IndexOrg::kMX}})));
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("nav"), setup_.person).value(),
      (std::vector<Oid>{p}));
  // The scan must charge at least the person segment's pages.
  db_.pager().ResetStats();
  CheckOk(
      db_.Query(kPeople, Key::FromString("nav"), setup_.person).status());
  EXPECT_GE(db_.pager().stats().reads,
            db_.store().SegmentPages(setup_.person));
}

TEST_F(DatabaseTest, ReconfigurationReplacesIndexes) {
  const Oid p = MakeChain("alpha");
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("alpha"), setup_.person).value(),
      (std::vector<Oid>{p}));
  // Replace MIX by the paper's split; queries still work.
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                   {Subpath{3, 4}, IndexOrg::kMX}})));
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("alpha"), setup_.person).value(),
      (std::vector<Oid>{p}));
  EXPECT_EQ(db_.physical(kPeople).indexes().size(), 2u);
}

TEST_F(DatabaseTest, InsertsAfterConfigurationAreVisible) {
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                   {Subpath{3, 4}, IndexOrg::kMX}})));
  const Oid p = MakeChain("beta");
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("beta"), setup_.person).value(),
      (std::vector<Oid>{p}));
  CheckOk(db_.ValidateIndexesDeep());
}

TEST_F(DatabaseTest, ObjectsOffThePathAreIgnoredByIndexes) {
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  // A free-standing Division insertion maintains only the level-4 index;
  // an object of a class outside the schema path would be skipped. Here we
  // check an unrelated attribute-only object (Division without references
  // to it) keeps everything consistent.
  db_.Insert(setup_.division, {{"name", {Value::Str("loner")}}});
  CheckOk(db_.ValidateIndexesDeep());
  EXPECT_TRUE(db_.Query(kPeople, Key::FromString("loner"), setup_.person)
                  .value()
                  .empty());
  EXPECT_EQ(db_.Query(kPeople, Key::FromString("loner"), setup_.division)
                .value()
                .size(),
            1u);
}

TEST_F(DatabaseTest, QueryCountsOnlyIndexPages) {
  const Oid p = MakeChain("gamma");
  (void)p;
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));
  db_.pager().ResetStats();
  CheckOk(
      db_.Query(kPeople, Key::FromString("gamma"), setup_.person).status());
  // Tiny database: a NIX lookup is one or two page reads, no writes.
  EXPECT_LE(db_.pager().stats().reads, 3u);
  EXPECT_EQ(db_.pager().stats().writes, 0u);
}

TEST_F(DatabaseTest, SubclassQueriesRespectHierarchyFlag) {
  const Oid d = db_.Insert(setup_.division, {{"name", {Value::Str("x")}}});
  const Oid c = db_.Insert(setup_.company, {{"divs", {Value::Ref(d)}}});
  const Oid bus = db_.Insert(setup_.bus, {{"man", {Value::Ref(c)}}});
  CheckOk(db_.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  // w.r.t. Vehicle without subclasses: the Bus is not a Vehicle instance.
  EXPECT_TRUE(db_.Query(kPeople, Key::FromString("x"), setup_.vehicle, false)
                  .value()
                  .empty());
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("x"), setup_.vehicle, true).value(),
      (std::vector<Oid>{bus}));
  EXPECT_EQ(
      db_.Query(kPeople, Key::FromString("x"), setup_.bus, false).value(),
      (std::vector<Oid>{bus}));
}

}  // namespace
}  // namespace pathix
