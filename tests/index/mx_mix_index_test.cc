// Dedicated unit tests of the physical MX and MIX organizations: per-class
// vs per-level trees, probe filtering semantics, previous-level key removal
// on deletion, and boundary deletions. Plus the posting-order invariant
// every posting-list index (MX, MIX and NIX) validates.

#include <gtest/gtest.h>

#include <string>

#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/mix_index.h"
#include "index/mx_index.h"
#include "index/nix_index.h"

namespace pathix {
namespace {

class MxMixFixture : public ::testing::Test {
 protected:
  MxMixFixture()
      : setup_(MakeExample51Setup()), db_(setup_.schema, PhysicalParams{}) {
    d1_ = db_.Insert(setup_.division, {{"name", {Value::Str("alpha")}}});
    c1_ = db_.Insert(setup_.company, {{"divs", {Value::Ref(d1_)}}});
    v1_ = db_.Insert(setup_.vehicle, {{"man", {Value::Ref(c1_)}}});
    b1_ = db_.Insert(setup_.bus, {{"man", {Value::Ref(c1_)}}});
    p1_ = db_.Insert(setup_.person,
                     {{"owns", {Value::Ref(v1_), Value::Ref(b1_)}}});
  }

  /// Appends a copy of \p key's first posting to its record in \p tree:
  /// a duplicate, so the postings are no longer strictly increasing.
  static void AppendOutOfOrder(PostingTree& tree, const Key& key) {
    tree.Upsert(
        key,
        [&] {
          PostingRecord rec;
          rec.key_value = key;
          return rec;
        },
        [](PostingRecord* rec) {
          ASSERT_FALSE(rec->postings.empty());
          rec->postings.push_back(rec->postings.front());
        });
  }

  static void ExpectOrderViolation(const Status& status) {
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("strictly increasing"),
              std::string::npos)
        << status.ToString();
  }

  SubpathIndexContext Ctx(int start, int end) {
    SubpathIndexContext ctx;
    ctx.schema = &setup_.schema;
    ctx.path = &setup_.path;
    ctx.range = Subpath{start, end};
    return ctx;
  }

  PaperSetup setup_;
  SimDatabase db_;
  Oid d1_, c1_, v1_, b1_, p1_;
};

TEST_F(MxMixFixture, MXKeepsOneTreePerScopeClass) {
  MXIndex mx(&db_.pager(), Ctx(1, 4));
  mx.Build(db_.store());
  // Level 2's hierarchy has three classes, each with its own tree.
  EXPECT_NE(mx.tree_for(2, setup_.vehicle), nullptr);
  EXPECT_NE(mx.tree_for(2, setup_.bus), nullptr);
  EXPECT_NE(mx.tree_for(2, setup_.truck), nullptr);
  EXPECT_EQ(mx.tree_for(2, setup_.person), nullptr);
  // Vehicle and Bus postings live in different trees.
  EXPECT_EQ(mx.tree_for(2, setup_.vehicle)->tree().num_records(), 1u);
  EXPECT_EQ(mx.tree_for(2, setup_.bus)->tree().num_records(), 1u);
  EXPECT_EQ(mx.tree_for(2, setup_.truck)->tree().num_records(), 0u);
}

TEST_F(MxMixFixture, MIXKeepsOneTreePerLevel) {
  MIXIndex mix(&db_.pager(), Ctx(1, 4));
  mix.Build(db_.store());
  ASSERT_NE(mix.tree_for(2), nullptr);
  // One record keyed by the company oid, holding both subclasses' oids.
  const PostingRecord* rec =
      mix.tree_for(2)->tree().Peek(Key::FromOid(c1_));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->postings.size(), 2u);
}

TEST_F(MxMixFixture, ProbeTargetsOnlyRequestedClasses) {
  MXIndex mx(&db_.pager(), Ctx(1, 4));
  mx.Build(db_.store());
  const std::vector<Key> key{Key::FromString("alpha")};
  // w.r.t. Vehicle only: the Bus is filtered out at the target level.
  EXPECT_EQ(mx.Probe(key, 2, {setup_.vehicle}), (std::vector<Oid>{v1_}));
  EXPECT_EQ(mx.Probe(key, 2, {setup_.bus}), (std::vector<Oid>{b1_}));
  const std::vector<Oid> both =
      mx.Probe(key, 2, {setup_.vehicle, setup_.bus, setup_.truck});
  EXPECT_EQ(both.size(), 2u);
}

TEST_F(MxMixFixture, MIXProbeFiltersWithinTheSharedRecord) {
  MIXIndex mix(&db_.pager(), Ctx(1, 4));
  mix.Build(db_.store());
  const std::vector<Key> key{Key::FromString("alpha")};
  EXPECT_EQ(mix.Probe(key, 2, {setup_.bus}), (std::vector<Oid>{b1_}));
  EXPECT_EQ(mix.Probe(key, 1, {setup_.person}), (std::vector<Oid>{p1_}));
}

TEST_F(MxMixFixture, DeleteRemovesOidKeyFromPreviousLevel) {
  MXIndex mx(&db_.pager(), Ctx(1, 4));
  mx.Build(db_.store());
  // Before: the person is reachable through v1.
  EXPECT_EQ(mx.Probe({Key::FromString("alpha")}, 1, {setup_.person}).size(),
            1u);
  const Object vehicle = *db_.store().Peek(v1_);
  mx.OnDelete(vehicle, 2);
  // v1's record in the level-1 (owns) index is gone; the person remains
  // reachable through the bus only.
  EXPECT_EQ(mx.tree_for(1, setup_.person)->tree().Peek(Key::FromOid(v1_)),
            nullptr);
  EXPECT_EQ(mx.Probe({Key::FromString("alpha")}, 1, {setup_.person}).size(),
            1u);
}

TEST_F(MxMixFixture, BoundaryDeleteDropsEndingKeyRecords) {
  MXIndex mx(&db_.pager(), Ctx(1, 2));  // subpath ends at `man`
  mx.Build(db_.store());
  EXPECT_EQ(mx.Probe({Key::FromOid(c1_)}, 1, {setup_.person}).size(), 1u);
  mx.OnBoundaryDelete(c1_);
  EXPECT_TRUE(mx.Probe({Key::FromOid(c1_)}, 1, {setup_.person}).empty());
  CheckOk(mx.Validate());
}

TEST_F(MxMixFixture, InsertMaintainsOnlyTheObjectsOwnTree) {
  MXIndex mx(&db_.pager(), Ctx(1, 4));
  mx.Build(db_.store());
  Object truck;
  truck.oid = 999;
  truck.cls = setup_.truck;
  truck.attrs["man"] = {Value::Ref(c1_)};
  db_.pager().ResetStats();
  mx.OnInsert(truck, 2);
  EXPECT_GT(db_.pager().stats().writes, 0u);
  const PostingRecord* rec =
      mx.tree_for(2, setup_.truck)->tree().Peek(Key::FromOid(c1_));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->postings[0].oid, 999u);
}

TEST_F(MxMixFixture, ValidateChecksEveryTree) {
  MIXIndex mix(&db_.pager(), Ctx(1, 4));
  mix.Build(db_.store());
  CheckOk(mix.Validate());
  EXPECT_GT(mix.total_pages(), 3u);
}

TEST_F(MxMixFixture, MultiValuedAttributesAddOnePostingPerValue) {
  // A person owning the same bus twice keeps a numchild-2 posting.
  const Oid p2 = db_.Insert(setup_.person,
                            {{"owns", {Value::Ref(b1_), Value::Ref(b1_)}}});
  MXIndex mx(&db_.pager(), Ctx(1, 1));
  mx.Build(db_.store());
  const PostingRecord* rec =
      mx.tree_for(1, setup_.person)->tree().Peek(Key::FromOid(b1_));
  ASSERT_NE(rec, nullptr);
  bool found = false;
  for (const Posting& p : rec->postings) {
    if (p.oid == p2) {
      EXPECT_EQ(p.numchild, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MxMixFixture, MXValidateRejectsUnorderedPostings) {
  MXIndex mx(&db_.pager(), Ctx(1, 4));
  mx.Build(db_.store());
  CheckOk(mx.Validate());
  AppendOutOfOrder(mx.tree_for(2, setup_.vehicle)->tree(), Key::FromOid(c1_));
  ExpectOrderViolation(mx.Validate());
}

TEST_F(MxMixFixture, MIXValidateRejectsUnorderedPostings) {
  MIXIndex mix(&db_.pager(), Ctx(1, 4));
  mix.Build(db_.store());
  CheckOk(mix.Validate());
  AppendOutOfOrder(mix.tree_for(2)->tree(), Key::FromOid(c1_));
  ExpectOrderViolation(mix.Validate());
}

TEST_F(MxMixFixture, NIXValidateRejectsUnorderedPostings) {
  NIXIndex nix(&db_.pager(), Ctx(1, 4));
  nix.Build(db_.store());
  CheckOk(nix.Validate());
  AppendOutOfOrder(nix.primary(), Key::FromString("alpha"));
  ExpectOrderViolation(nix.Validate());
}

}  // namespace
}  // namespace pathix
