// Paper-fidelity tests: Section 2.2 defines each organization by example on
// the Figure 2 instances (Vehicle[i] White, Vehicle[j]/Vehicle[k] Red, a Bus
// and a Truck, persons owning them, companies manufacturing them). This
// suite rebuilds equivalent instances and asserts the *record contents* each
// organization produces — SIX on one class, IIX covering the hierarchy, MX
// splitting per class, MIX grouping per level, NIX inverting the whole path.

#include <gtest/gtest.h>

#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/mix_index.h"
#include "index/mx_index.h"
#include "index/nix_index.h"
#include "index/single_index.h"

namespace pathix {
namespace {

class Figure2Fixture : public ::testing::Test {
 protected:
  Figure2Fixture()
      : setup_(MakeExample51Setup()), db_(setup_.schema, PhysicalParams{}) {
    // Companies (Fiat-like, Renault-like, Daf-like) with divisions.
    div_a_ = db_.Insert(setup_.division, {{"name", {Value::Str("alpha")}}});
    div_b_ = db_.Insert(setup_.division, {{"name", {Value::Str("beta")}}});
    comp_i_ = db_.Insert(setup_.company, {{"name", {Value::Str("Renault")}},
                                          {"divs", {Value::Ref(div_a_)}}});
    comp_j_ = db_.Insert(setup_.company, {{"name", {Value::Str("Fiat")}},
                                          {"divs", {Value::Ref(div_b_)}}});
    // Vehicles: Vehicle[i] White by Renault; Vehicle[j] Red by Fiat;
    // Bus[i] Red by Fiat; Truck[i] White by Fiat.
    veh_i_ = db_.Insert(setup_.vehicle, {{"color", {Value::Str("White")}},
                                         {"man", {Value::Ref(comp_i_)}}});
    veh_j_ = db_.Insert(setup_.vehicle, {{"color", {Value::Str("Red")}},
                                         {"man", {Value::Ref(comp_j_)}}});
    bus_i_ = db_.Insert(setup_.bus, {{"color", {Value::Str("Red")}},
                                     {"man", {Value::Ref(comp_j_)}}});
    truck_i_ = db_.Insert(setup_.truck, {{"color", {Value::Str("White")}},
                                         {"man", {Value::Ref(comp_j_)}}});
    // Persons.
    per_o_ = db_.Insert(setup_.person, {{"owns", {Value::Ref(veh_i_)}}});
    per_p_ = db_.Insert(setup_.person, {{"owns", {Value::Ref(bus_i_)}}});
    per_q_ = db_.Insert(setup_.person,
                        {{"owns", {Value::Ref(veh_j_), Value::Ref(truck_i_)}}});
  }

  SubpathIndexContext Ctx(int a, int b) {
    SubpathIndexContext ctx;
    ctx.schema = &setup_.schema;
    ctx.path = &setup_.path;
    ctx.range = Subpath{a, b};
    return ctx;
  }

  PaperSetup setup_;
  SimDatabase db_;
  Oid div_a_, div_b_, comp_i_, comp_j_;
  Oid veh_i_, veh_j_, bus_i_, truck_i_;
  Oid per_o_, per_p_, per_q_;
};

TEST_F(Figure2Fixture, SIXIndexesOneClassOnly) {
  // "An index on the attribute color of the class Veh results into the
  // pairs (White, {Vehicle[i]}) and (Red, {Vehicle[j]...})" — the Bus and
  // Truck are NOT included by a simple index.
  AttrIndex six(&db_.pager(), "six.color");
  for (Oid oid : db_.store().PeekAll(setup_.vehicle)) {
    for (const Value& v : db_.store().Peek(oid)->values("color")) {
      six.AddEntry(Key::FromValue(v), setup_.vehicle, oid);
    }
  }
  const std::vector<Posting> white = six.Lookup(Key::FromString("White"));
  ASSERT_EQ(white.size(), 1u);
  EXPECT_EQ(white[0].oid, veh_i_);
  const std::vector<Posting> red = six.Lookup(Key::FromString("Red"));
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red[0].oid, veh_j_);
}

TEST_F(Figure2Fixture, IIXCoversTheWholeHierarchy) {
  // "Allocating an inherited index on the attribute color of the class Veh
  // ... pairs (White, {Vehicle[i], Truck[i]}) and (Red, {Vehicle[j],
  // Bus[i]})" (modulo the scan's garbled oids).
  AttrIndex iix(&db_.pager(), "iix.color");
  for (ClassId cls : setup_.schema.HierarchyOf(setup_.vehicle)) {
    for (Oid oid : db_.store().PeekAll(cls)) {
      for (const Value& v : db_.store().Peek(oid)->values("color")) {
        iix.AddEntry(Key::FromValue(v), cls, oid);
      }
    }
  }
  const std::vector<Posting> white = iix.Lookup(Key::FromString("White"));
  ASSERT_EQ(white.size(), 2u);
  const std::vector<Posting> red = iix.Lookup(Key::FromString("Red"));
  ASSERT_EQ(red.size(), 2u);
}

TEST_F(Figure2Fixture, MXSplitsManufacturerIndexPerClass) {
  // "an MX on this path results into ... an index on man of the classes
  // Veh, Bus and Truck [each] and an index on the attribute owns".
  MXIndex mx(&db_.pager(), Ctx(1, 2));  // Per.owns.man
  mx.Build(db_.store());
  // Fiat's company oid keys three separate per-class records.
  const PostingRecord* veh_rec =
      mx.tree_for(2, setup_.vehicle)->tree().Peek(Key::FromOid(comp_j_));
  const PostingRecord* bus_rec =
      mx.tree_for(2, setup_.bus)->tree().Peek(Key::FromOid(comp_j_));
  const PostingRecord* truck_rec =
      mx.tree_for(2, setup_.truck)->tree().Peek(Key::FromOid(comp_j_));
  ASSERT_NE(veh_rec, nullptr);
  ASSERT_NE(bus_rec, nullptr);
  ASSERT_NE(truck_rec, nullptr);
  EXPECT_EQ(veh_rec->postings.size(), 1u);
  EXPECT_EQ(bus_rec->postings.size(), 1u);
  EXPECT_EQ(truck_rec->postings.size(), 1u);
}

TEST_F(Figure2Fixture, MIXGroupsTheHierarchyInOneRecord) {
  // "a multi-inherited index ... an index on man of the class Veh and its
  // subclasses: (Company[j], {(Vehicle[k], Bus[i], Truck[i])})".
  MIXIndex mix(&db_.pager(), Ctx(1, 2));
  mix.Build(db_.store());
  const PostingRecord* rec =
      mix.tree_for(2)->tree().Peek(Key::FromOid(comp_j_));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->postings.size(), 3u);  // Vehicle[j], Bus[i], Truck[i]
}

TEST_F(Figure2Fixture, MXOwnsIndexMapsVehiclesToOwners) {
  // "(Vehicle[i], {Person[o]}), ... (Truck[i], {Person[q]}), (Bus[i],
  // {Person[p]})".
  MXIndex mx(&db_.pager(), Ctx(1, 2));
  mx.Build(db_.store());
  AttrIndex* owns = mx.tree_for(1, setup_.person);
  ASSERT_NE(owns, nullptr);
  const PostingRecord* rec = owns->tree().Peek(Key::FromOid(bus_i_));
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->postings.size(), 1u);
  EXPECT_EQ(rec->postings[0].oid, per_p_);
  const PostingRecord* rec2 = owns->tree().Peek(Key::FromOid(truck_i_));
  ASSERT_NE(rec2, nullptr);
  EXPECT_EQ(rec2->postings[0].oid, per_q_);
}

TEST_F(Figure2Fixture, NIXInvertsTheWholePathPerClass) {
  // Figure 5: the primary record for 'Renault' lists, per scope class, all
  // objects reaching the value: Company[i], Vehicle[i], Person[o].
  // Example 2.1's path Pe = Person.owns.man.name.
  constexpr char kPe[] = "pe";
  CheckOk(db_.RegisterPath(
      kPe, Path::Create(setup_.schema, setup_.person, {"owns", "man", "name"})
               .value()));
  CheckOk(db_.ConfigureIndexes(
      kPe, IndexConfiguration({{Subpath{1, 3}, IndexOrg::kNIX}})));
  EXPECT_EQ(db_.Query(kPe, Key::FromString("Renault"), setup_.person).value(),
            (std::vector<Oid>{per_o_}));
  EXPECT_EQ(db_.Query(kPe, Key::FromString("Renault"), setup_.vehicle).value(),
            (std::vector<Oid>{veh_i_}));
  EXPECT_EQ(db_.Query(kPe, Key::FromString("Renault"), setup_.company).value(),
            (std::vector<Oid>{comp_i_}));
  // Fiat reaches Vehicle[j], Bus[i], Truck[i] and Persons p, q.
  EXPECT_EQ(db_.Query(kPe, Key::FromString("Fiat"), setup_.vehicle, true)
                .value()
                .size(),
            3u);
  EXPECT_EQ(db_.Query(kPe, Key::FromString("Fiat"), setup_.person).value(),
            (std::vector<Oid>{per_p_, per_q_}));
}

TEST_F(Figure2Fixture, Example21ScopeAndLength) {
  // Example 2.1: len(Pe) = 3, class(Pe) = (Per, Veh, Comp),
  // scope(Pe) = (Per, Veh, Bus, Truck, Comp).
  const Path pe =
      Path::Create(setup_.schema, setup_.person, {"owns", "man", "name"})
          .value();
  EXPECT_EQ(pe.length(), 3);
  EXPECT_EQ(pe.classes(),
            (std::vector<ClassId>{setup_.person, setup_.vehicle,
                                  setup_.company}));
  EXPECT_EQ(pe.Scope(setup_.schema),
            (std::vector<ClassId>{setup_.person, setup_.vehicle, setup_.bus,
                                  setup_.truck, setup_.company}));
}

}  // namespace
}  // namespace pathix
