// The online controller on one path + transition cost + physical part
// reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "obs/trace.h"
#include "online/joint_controller.h"
#include "online/transition_cost.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

constexpr int kDistinct = 40;
constexpr char kPeople[] = "people";

/// A populated Example 5.1 database at laptop scale.
struct Instance {
  Instance() : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(2718);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 40, kDistinct, 1.0},
                     {setup.company, 40, 0, 3.0},
                     {setup.vehicle, 300, 0, 2.0},
                     {setup.bus, 150, 0, 2.0},
                     {setup.truck, 150, 0, 2.0},
                     {setup.person, 4000, 0, 1.0},
                 });
  }

  PathContext Context(const LoadDistribution& load) const {
    const Catalog catalog = CollectStatistics(db.store(), setup.schema,
                                              setup.path, PhysicalParams{});
    return PathContext::Build(setup.schema, setup.path, catalog, load)
        .value();
  }

  PaperSetup setup;
  SimDatabase db;
};

TEST(TransitionCostTest, UnchangedPartsAreFree) {
  Instance inst;
  const IndexConfiguration config(
      {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMX}});
  CheckOk(inst.db.ConfigureIndexes(kPeople, config));
  const PathContext ctx = inst.Context(LoadDistribution{});

  const TransitionCost same = EstimateJointTransitionCost(
      {{&ctx, &inst.db.physical(kPeople), &config}}, inst.db.store());
  EXPECT_DOUBLE_EQ(same.total(), 0.0);

  // Changing only the tail drops/builds the tail part; the [1,3] NIX stays
  // free even though it is by far the biggest structure.
  const IndexConfiguration retail(
      {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMIX}});
  const TransitionCost tail = EstimateJointTransitionCost(
      {{&ctx, &inst.db.physical(kPeople), &retail}}, inst.db.store());
  EXPECT_GT(tail.total(), 0.0);

  const IndexConfiguration reorg(
      {{Subpath{1, 4}, IndexOrg::kNIX}});
  const TransitionCost full = EstimateJointTransitionCost(
      {{&ctx, &inst.db.physical(kPeople), &reorg}}, inst.db.store());
  EXPECT_GT(full.drop_pages, tail.drop_pages);
  EXPECT_GT(full.scan_pages, tail.scan_pages);
}

TEST(TransitionCostTest, NonePartsBuildForFree) {
  // NoneIndex materializes nothing (Build only stores a pointer), so a
  // switch *to* "no index" must not be charged a phantom store scan.
  Instance inst;
  const PathContext ctx = inst.Context(LoadDistribution{});
  const IndexConfiguration all_none({{Subpath{1, 4}, IndexOrg::kNone}});
  const TransitionCost from_scratch = EstimateJointTransitionCost(
      {{&ctx, nullptr, &all_none}}, inst.db.store());
  EXPECT_DOUBLE_EQ(from_scratch.total(), 0.0);

  CheckOk(inst.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMX}})));
  const TransitionCost drop_to_none = EstimateJointTransitionCost(
      {{&ctx, &inst.db.physical(kPeople), &all_none}}, inst.db.store());
  EXPECT_GT(drop_to_none.drop_pages, 0.0);  // the MX pages are freed ...
  EXPECT_DOUBLE_EQ(drop_to_none.scan_pages, 0.0);  // ... nothing is built
  EXPECT_DOUBLE_EQ(drop_to_none.write_pages, 0.0);
}

TEST(TransitionCostTest, FromScratchPricesEveryPart) {
  Instance inst;
  const PathContext ctx = inst.Context(LoadDistribution{});
  const IndexConfiguration config({{Subpath{1, 4}, IndexOrg::kNIX}});
  const TransitionCost cost = EstimateJointTransitionCost(
      {{&ctx, nullptr, &config}}, inst.db.store());
  EXPECT_DOUBLE_EQ(cost.drop_pages, 0.0);
  EXPECT_GT(cost.scan_pages, 0.0);
  EXPECT_GT(cost.write_pages, 0.0);
}

TEST(ReconfigureIndexesTest, ReusesIdenticalPartsPhysically) {
  Instance inst;
  CheckOk(inst.db.ConfigureIndexes(
      kPeople,
      IndexConfiguration(
          {{Subpath{1, 3}, IndexOrg::kNIX}, {Subpath{4, 4}, IndexOrg::kMX}})));
  const SubpathIndex* kept = inst.db.physical(kPeople).indexes()[0];

  CheckOk(inst.db.ReconfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 3}, IndexOrg::kNIX},
                                   {Subpath{4, 4}, IndexOrg::kMIX}})));
  // The [1,3] NIX is the same physical object, not a rebuild.
  EXPECT_EQ(inst.db.physical(kPeople).indexes()[0], kept);
  EXPECT_EQ(inst.db.physical(kPeople).indexes()[1]->org(), IndexOrg::kMIX);
  CheckOk(inst.db.ValidateIndexesDeep());

  // The reused configuration keeps answering queries and absorbing updates.
  const Key value = Key::FromString(EndingValue(3));
  const Result<std::vector<Oid>> indexed =
      inst.db.Query(kPeople, value, inst.setup.person);
  const Result<std::vector<Oid>> naive =
      inst.db.QueryNaive(kPeople, value, inst.setup.person);
  CheckOk(indexed.status());
  CheckOk(naive.status());
  EXPECT_EQ(indexed.value(), naive.value());
}

TEST(ControllerTest, InstallsAfterWarmupAndReportsTheEvent) {
  Instance inst;
  ControllerOptions options;
  options.warmup_ops = 50;
  options.check_interval_ops = 50;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);

  for (int i = 0; i < 50; ++i) {
    const Key value = Key::FromString(EndingValue(i % kDistinct));
    CheckOk(inst.db.QueryNaive(kPeople, value, inst.setup.person).status());
  }
  inst.db.SetObserver(nullptr);

  CheckOk(controller.status());
  EXPECT_TRUE(inst.db.has_indexes(kPeople));
  ASSERT_EQ(controller.events_committed(), 1u);
  const DecisionRecord& install = controller.decisions().front();
  EXPECT_EQ(install.verdict, "install");
  EXPECT_DOUBLE_EQ(install.hysteresis.modeled.total(),
                   controller.transition_pages_charged());
  EXPECT_GT(controller.transition_pages_charged(), 0.0);
  // A pure query load never indexes nothing.
  EXPECT_GT(inst.db.physical(kPeople).config().degree(), 0);
}

TEST(ControllerTest, EscapesAHandInstalledForeignOrgConfiguration) {
  // The installed configuration uses an organization outside the
  // controller's candidate set ({MX, MIX, NIX} by default); the controller
  // must price it from the model — it has no candidate-pool entry — and
  // then switch away under a query-heavy stream, for which "no index" is by
  // far the worst choice.
  Instance inst;
  CheckOk(inst.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNone}})));
  ControllerOptions options;
  options.warmup_ops = 50;
  options.check_interval_ops = 50;
  JointReconfigurationController controller(&inst.db, options);
  inst.db.SetObserver(&controller);
  for (int i = 0; i < 300; ++i) {
    const Key value = Key::FromString(EndingValue(i % kDistinct));
    CheckOk(inst.db.Query(kPeople, value, inst.setup.person).status());
  }
  inst.db.SetObserver(nullptr);
  CheckOk(controller.status());
  const auto& ledger = controller.decisions();
  const auto first_commit =
      std::find_if(ledger.begin(), ledger.end(), [](const DecisionRecord& r) {
        return r.verdict != "hold";
      });
  ASSERT_NE(first_commit, ledger.end());
  EXPECT_EQ(first_commit->verdict, "switch");
  bool still_none = false;
  for (const IndexedSubpath& part :
       inst.db.physical(kPeople).config().parts()) {
    if (part.org == IndexOrg::kNone) still_none = true;
  }
  EXPECT_FALSE(still_none);
}

TEST(ControllerTest, ScopedAnalyzeRecollectsOnlyDriftedClasses) {
  Instance inst;
  JointReconfigurationController controller(&inst.db);

  // First check: the initial collection covers all six scope classes
  // (Person, Vehicle, Bus, Truck, Company, Division).
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 1u);
  EXPECT_EQ(controller.analyzer().class_collections(), 6u);

  // Nothing moved: the next check re-analyzes nothing at all.
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 1u);
  EXPECT_EQ(controller.analyzer().class_collections(), 6u);

  // Only Person churns (well past the 10% threshold); the other five
  // classes are untouched and must not be re-analyzed.
  for (int i = 0; i < 1000; ++i) inst.db.Insert(inst.setup.person, {});
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().refreshes(), 2u);
  EXPECT_EQ(controller.analyzer().class_collections(), 7u);

  // Sub-threshold drift on Vehicle (300 live, 10 < 10%) stays scoped out.
  for (int i = 0; i < 10; ++i) inst.db.Insert(inst.setup.vehicle, {});
  controller.CheckNow();
  EXPECT_EQ(controller.analyzer().class_collections(), 7u);
}

TEST(ControllerTest, ScopedAnalyzeSpanCarriesTheClassesCollected) {
  Instance inst;
  JointReconfigurationController controller(&inst.db);
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Clear();
  tracer.SetEnabled(true);
  controller.CheckNow();  // the first collection: all six scope classes
  controller.CheckNow();  // nothing drifted: no ANALYZE, no span
  for (int i = 0; i < 1000; ++i) inst.db.Insert(inst.setup.person, {});
  controller.CheckNow();  // Person alone
  tracer.SetEnabled(false);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.Clear();

  std::vector<double> classes;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name != "scoped_analyze" || ev.phase != 'E') continue;
    for (const auto& [key, value] : ev.num_args) {
      if (key == "classes") classes.push_back(value);
    }
  }
  EXPECT_EQ(classes, (std::vector<double>{6, 1}));
}

TEST(ControllerTest, HysteresisBlocksMarginalSwitches) {
  // Two controllers see the same drifting stream; the infinitely-reluctant
  // one must never switch after its initial install.
  for (const bool reluctant : {false, true}) {
    Instance inst;
    ControllerOptions options;
    options.warmup_ops = 50;
    options.check_interval_ops = 50;
    options.half_life_ops = 100;
    if (reluctant) {
      options.hysteresis = 1e18;  // nothing can ever pay for itself
    }
    JointReconfigurationController controller(&inst.db, options);
    inst.db.SetObserver(&controller);

    for (int i = 0; i < 400; ++i) {
      const Key value = Key::FromString(EndingValue(i % kDistinct));
      CheckOk(inst.db.QueryNaive(kPeople, value, inst.setup.person).status());
    }
    // Hard shift to update-heavy traffic on Person.
    for (int i = 0; i < 800; ++i) {
      inst.db.Insert(inst.setup.person, {});
    }
    inst.db.SetObserver(nullptr);

    CheckOk(controller.status());
    std::size_t switches = 0;
    for (const DecisionRecord& rec : controller.decisions()) {
      if (rec.verdict == "switch") ++switches;
    }
    if (reluctant) {
      EXPECT_EQ(switches, 0u);
    } else {
      EXPECT_GT(switches, 0u);
    }
    CheckOk(inst.db.ValidateIndexesDeep());
  }
}

TEST(ControllerTest, ConcurrentChecksLogOneUpdateLoadPerClass) {
  // Four workers serve two paths that share Vehicle, Company and Division
  // while the controller checks every few dozen ops. Update frequencies
  // are per class, so every path's row of a class must carry the same
  // insert and delete frequency: each check reads the monitor once. Not
  // labeled slow: TSan runs it.
  constexpr const char* kSpec = R"(
class Person          1500 600 1 64
class Vehicle         200  150 2 64
class Bus   : Vehicle 100  90  2 64
class Company         30   30  2 64
class Division        30   30  1 64

ref Person  owns Vehicle  multi
ref Vehicle man  Company  multi
ref Company divs Division multi
attr Division name string

path people Person owns man divs name
path fleet  Vehicle man divs name
orgs MX MIX NIX NONE

populate Person   1500 0  1.0
populate Vehicle  200  0  2.0
populate Bus      100  0  2.0
populate Company  30   0  2.0
populate Division 30   30 1.0
trace_seed 30

phase churn 8000
mix people Person   0.30 0.10 0.10
mix fleet  Vehicle  0.20 0.08 0.08
mix fleet  Bus      0.00 0.06 0.06
mix fleet  Division 0.10 0.06 0.06
)";
  Result<TraceSpec> spec = ParseTraceSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();

  SimDatabase db(s.schema, s.catalog.params());
  ServeDriver driver(&db, s, ServeOptions{4});
  driver.Populate();
  ControllerOptions options = ControllerOptionsFor(s);
  options.warmup_ops = 64;
  options.check_interval_ops = 32;
  JointReconfigurationController controller(&db, options);
  db.SetObserver(&controller);
  driver.RunPhase(0, &controller);
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  std::size_t shared_rows = 0;
  for (const DecisionRecord& rec : controller.decisions()) {
    std::map<std::string, std::pair<double, double>> first_row;
    for (const DecisionLoadEntry& row : rec.load) {
      const auto [it, fresh] =
          first_row.emplace(row.cls, std::make_pair(row.insert, row.del));
      if (fresh) continue;
      ++shared_rows;
      EXPECT_EQ(row.insert, it->second.first)
          << "check " << rec.check_number << " " << row.path << " "
          << row.cls;
      EXPECT_EQ(row.del, it->second.second)
          << "check " << rec.check_number << " " << row.path << " "
          << row.cls;
    }
  }
  EXPECT_GT(controller.decisions().size(), 10u);
  EXPECT_GT(shared_rows, 0u);
}

}  // namespace
}  // namespace pathix
