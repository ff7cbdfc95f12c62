#include "schema/path.h"

#include <gtest/gtest.h>

#include "datagen/paper_schema.h"

namespace pathix {
namespace {

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakePaperSchema(&per_, &veh_, &bus_, &truck_, &comp_, &div_);
  }
  Schema schema_;
  ClassId per_, veh_, bus_, truck_, comp_, div_;
};

TEST_F(PathTest, CreatesPexa) {
  Result<Path> p =
      Path::Create(schema_, per_, {"owns", "man", "divs", "name"});
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Path& path = p.value();
  EXPECT_EQ(path.length(), 4);
  EXPECT_EQ(path.class_at(1), per_);
  EXPECT_EQ(path.class_at(2), veh_);
  EXPECT_EQ(path.class_at(3), comp_);
  EXPECT_EQ(path.class_at(4), div_);
  EXPECT_EQ(path.attribute_at(1).name, "owns");
  EXPECT_EQ(path.attribute_at(4).name, "name");
  EXPECT_FALSE(path.ends_in_reference());
  EXPECT_EQ(path.ToString(schema_), "Person.owns.man.divs.name");
}

TEST_F(PathTest, ScopeIncludesSubclasses) {
  // Example 2.1 of the paper: scope(Pe) = {Per, Veh, Bus, Truck, Comp}.
  const Path path =
      Path::Create(schema_, per_, {"owns", "man", "name"}).value();
  EXPECT_EQ(path.length(), 3);
  const std::vector<ClassId> scope = path.Scope(schema_);
  EXPECT_EQ(scope, (std::vector<ClassId>{per_, veh_, bus_, truck_, comp_}));
}

TEST_F(PathTest, UnknownAttributeRejected) {
  Result<Path> p = Path::Create(schema_, per_, {"wheels"});
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PathTest, AtomicAttributeCannotBeNavigated) {
  Result<Path> p = Path::Create(schema_, per_, {"name", "man"});
  EXPECT_FALSE(p.ok());
}

TEST_F(PathTest, EmptyAttributeListRejected) {
  EXPECT_FALSE(Path::Create(schema_, per_, {}).ok());
}

TEST_F(PathTest, InvalidStartingClassRejected) {
  EXPECT_FALSE(Path::Create(schema_, 99, {"owns"}).ok());
}

TEST_F(PathTest, SubpathEndingInReferenceIsValid) {
  Result<Path> p = Path::Create(schema_, per_, {"owns", "man"});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().ends_in_reference());
}

TEST_F(PathTest, SubpathBetweenExtractsRange) {
  const Path path =
      Path::Create(schema_, per_, {"owns", "man", "divs", "name"}).value();
  const Path sub = path.SubpathBetween(2, 3);
  EXPECT_EQ(sub.length(), 2);
  EXPECT_EQ(sub.class_at(1), veh_);
  EXPECT_EQ(sub.attribute_at(2).name, "divs");
  EXPECT_EQ(sub.ToString(schema_), "Vehicle.man.divs");
}

TEST_F(PathTest, PathLengthOne) {
  const Path p = Path::Create(schema_, div_, {"name"}).value();
  EXPECT_EQ(p.length(), 1);
  EXPECT_EQ(p.Scope(schema_), std::vector<ClassId>{div_});
}

TEST_F(PathTest, ClassRepetitionRejected) {
  // Build a cyclic aggregation A -> B -> A; Def. 2.1 forbids revisiting A.
  Schema s;
  const ClassId a = s.AddClass("A").value();
  const ClassId b = s.AddClass("B").value();
  ASSERT_TRUE(s.AddReferenceAttribute(a, "to_b", b).ok());
  ASSERT_TRUE(s.AddReferenceAttribute(b, "to_a", a).ok());
  ASSERT_TRUE(s.AddAtomicAttribute(a, "x", AtomicType::kInt).ok());
  EXPECT_TRUE(Path::Create(s, a, {"to_b", "to_a"}).ok());  // ends at A: ok
  Result<Path> cyc = Path::Create(s, a, {"to_b", "to_a", "to_b"});
  EXPECT_FALSE(cyc.ok());  // would use A twice as a navigated class
}

TEST_F(PathTest, LevelsSharingAHierarchyRejected) {
  // Company.fleet holds Buses, Company.cars Vehicles, and a Bus is a
  // Vehicle. A level stands for its class's whole hierarchy, so a Bus could
  // sit on two levels of either path below; Def. 2.1 needs each object on
  // one level at most.
  Schema s;
  const ClassId vehicle = s.AddClass("Vehicle").value();
  const ClassId bus = s.AddClass("Bus", vehicle).value();
  const ClassId company = s.AddClass("Company").value();
  ASSERT_TRUE(s.AddReferenceAttribute(vehicle, "man", company).ok());
  ASSERT_TRUE(s.AddReferenceAttribute(company, "fleet", bus, true).ok());
  ASSERT_TRUE(s.AddReferenceAttribute(company, "cars", vehicle, true).ok());
  ASSERT_TRUE(s.AddAtomicAttribute(vehicle, "color", AtomicType::kString).ok());

  const Result<Path> down = Path::Create(s, vehicle, {"man", "fleet", "color"});
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(down.status().message().find("'Vehicle' and 'Bus'"),
            std::string::npos)
      << down.status().message();

  const Result<Path> up = Path::Create(s, bus, {"man", "cars", "color"});
  ASSERT_FALSE(up.ok());
  EXPECT_NE(up.status().message().find("'Bus' and 'Vehicle'"),
            std::string::npos)
      << up.status().message();

  // Ending in a reference to Buses is fine: its domain is no level.
  EXPECT_TRUE(Path::Create(s, vehicle, {"man", "fleet"}).ok());
}

}  // namespace
}  // namespace pathix
