#include "io/spec_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "advisor/workload_advisor.h"

namespace pathix {
namespace {

constexpr const char* kGoodSpec = R"(
# comment line
page_size 2048
class A 1000 100 1
class B 500 50 2
class B2 : B 250 25 1
class C 100 100 1
ref A to_b B multi
ref B to_c C
attr C name string
path A to_b to_c name
load A 0.5 0.1 0.1
load B 0.2 0.1 0.1   # trailing comment
load C 0.1 0.1 0.1
)";

TEST(SpecParserTest, ParsesACompleteSpec) {
  Result<AdvisorSpec> spec = ParseAdvisorSpec(kGoodSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  AdvisorSpec& s = spec.value();
  EXPECT_EQ(s.schema.num_classes(), 4);
  EXPECT_EQ(s.path.length(), 3);
  EXPECT_EQ(s.path.ToString(s.schema), "A.to_b.to_c.name");
  EXPECT_DOUBLE_EQ(s.catalog.params().page_size, 2048);
  EXPECT_DOUBLE_EQ(s.catalog.GetClassStats(s.schema.FindClass("B")).nin, 2);
  EXPECT_DOUBLE_EQ(s.load.Get(s.schema.FindClass("A")).query, 0.5);
  // Subclass wiring.
  EXPECT_EQ(s.schema.GetClass(s.schema.FindClass("B2")).superclass(),
            s.schema.FindClass("B"));
}

TEST(SpecParserTest, ParsedSpecDrivesTheAdvisor) {
  AdvisorSpec s = ParseAdvisorSpec(kGoodSpec).value();
  Result<Recommendation> rec =
      AdviseIndexConfiguration(s.schema, s.path, s.catalog, s.load, s.options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec.value().result.config.Validate(3).ok());
}

TEST(SpecParserTest, OrgsAndMatchingKeysDirectives) {
  std::string text = kGoodSpec;
  text += "\norgs MX NIX PX\nmatching_keys 12\n";
  AdvisorSpec s = ParseAdvisorSpec(text).value();
  ASSERT_EQ(s.options.orgs.size(), 3u);
  EXPECT_EQ(s.options.orgs[2], IndexOrg::kPX);
  EXPECT_DOUBLE_EQ(s.options.query_profile.matching_keys, 12);
}

TEST(SpecParserTest, ErrorsCarryLineNumbers) {
  const char* bad = "class A 10 10 1\nbogus directive\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 2"), std::string::npos);
  // `measure` is no directive: every experiment checks the model.
  const char* measure =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\nmeasure off\nphase hot 10\nmix A 1 0 0\n";
  Result<TraceSpec> trace = ParseTraceSpec(measure);
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().message().find("line 5: unknown directive "
                                          "'measure'"),
            std::string::npos)
      << trace.status().ToString();
}

TEST(SpecParserTest, UnknownClassInRefRejected) {
  const char* bad = "class A 10 10 1\nref A to_b Ghost\npath A to_b\n";
  EXPECT_FALSE(ParseAdvisorSpec(bad).ok());
}

TEST(SpecParserTest, UnknownSuperclassRejected) {
  EXPECT_FALSE(ParseAdvisorSpec("class B : Ghost 10 10 1\n").ok());
}

TEST(SpecParserTest, MissingPathRejected) {
  EXPECT_FALSE(ParseAdvisorSpec("class A 10 10 1\n").ok());
}

TEST(SpecParserTest, DuplicatePathRejected) {
  const char* bad =
      "class A 10 10 1\nclass C 5 5 1\nref A to_c C\nattr C n string\n"
      "path A to_c n\npath A to_c n\n";
  EXPECT_FALSE(ParseAdvisorSpec(bad).ok());
}

TEST(SpecParserTest, NonNumericStatisticsRejected) {
  EXPECT_FALSE(ParseAdvisorSpec("class A ten 10 1\npath A x\n").ok());
}

TEST(SpecParserTest, NegativeLoadRejected) {
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\nload A -1 0 0\n";
  EXPECT_FALSE(ParseAdvisorSpec(bad).ok());
}

TEST(SpecParserTest, NanAndInfValuesRejected) {
  // std::stod parses "nan" and "inf"; the range checks must not let them
  // through into the cost model (NaN poisons every comparison downstream).
  EXPECT_FALSE(
      ParseAdvisorSpec(
          "class A 10 10 1\nattr A n string\npath A n\nload A nan 0 0\n")
          .ok());
  EXPECT_FALSE(ParseAdvisorSpec("page_size nan\nclass A 10 10 1\n"
                                "attr A n string\npath A n\n")
                   .ok());
  EXPECT_FALSE(ParseWorkloadSpec("class A 10 10 1\nattr A n string\n"
                                 "path A n\nload A 0.1 0 0\nbudget nan\n")
                   .ok());
  EXPECT_FALSE(ParseWorkloadSpec("class A 10 10 1\nattr A n string\n"
                                 "path A n\nload A 0.1 0 0\nbudget inf\n")
                   .ok());

  // Non-finite, negative and absurdly large class statistics, and infinite
  // parameters or frequencies, are line-numbered errors, not a
  // recommendation or an infinite expected cost.
  const std::string tail = "attr A n string\npath A n\n";
  for (const std::string& hostile : {
           "class A nan nan 1\n" + tail,
           "class A -5 -5 -1\n" + tail,
           "class A 200000 20000 1 nan\n" + tail,
           "class A 1e308 1e308 1e308\n" + tail,
           "class A 10 10 1\n" + tail + "load A inf 0.1 0.1\n",
           "key_len inf\nclass A 10 10 1\n" + tail,
           "page_size inf\nclass A 10 10 1\n" + tail,
       }) {
    SCOPED_TRACE(hostile);
    const Result<AdvisorSpec> spec = ParseAdvisorSpec(hostile);
    ASSERT_FALSE(spec.ok());
    EXPECT_NE(spec.status().message().find("line "), std::string::npos)
        << spec.status().message();
  }
  // Zero-statistics classes stay legal.
  EXPECT_TRUE(ParseAdvisorSpec("class A 0 0 0\n" + tail).ok());
}

TEST(SpecParserTest, BadOrgTokenRejected) {
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\norgs HASH\n";
  EXPECT_FALSE(ParseAdvisorSpec(bad).ok());
}

TEST(SpecParserTest, InvalidPathAttributeRejected) {
  const char* bad = "class A 10 10 1\npath A ghost\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("ghost"), std::string::npos);
}

TEST(SpecParserTest, MissingFileIsNotFound) {
  Result<AdvisorSpec> spec = ParseAdvisorSpecFile("/nonexistent/x.pix");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

TEST(SpecParserTest, VehicleSpecFileMatchesExample51) {
  // The shipped spec reproduces the canned Example 5.1 recommendation.
  Result<AdvisorSpec> spec =
      ParseAdvisorSpecFile(std::string(PATHIX_SOURCE_DIR) +
                           "/examples/specs/vehicle.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  AdvisorSpec& s = spec.value();
  const Recommendation rec =
      AdviseIndexConfiguration(s.schema, s.path, s.catalog, s.load, s.options)
          .value();
  EXPECT_EQ(rec.result.config.ToString(s.schema, s.path),
            "{(Person.owns.man, NIX), (Company.divs.name, MX)}");
}

TEST(SpecParserTest, DuplicateLoadRejectedWithLineNumber) {
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\n"
      "load A 0.5 0.1 0.1\nload A 0.2 0.1 0.1\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 5"), std::string::npos);
  EXPECT_NE(spec.status().message().find("duplicate load"),
            std::string::npos);
}

TEST(SpecParserTest, DuplicateOrgsRejectedWithLineNumber) {
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\n"
      "orgs MX NIX\norgs MX\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 5"), std::string::npos);
  EXPECT_NE(spec.status().message().find("duplicate orgs"),
            std::string::npos);
}

TEST(SpecParserTest, RepeatedOrganizationRejectedWithLineNumber) {
  // A repeat would be a second column over one pool entry: every joint
  // configuration enumerated twice.
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\norgs MX MIX MX NIX\n";
  Result<WorkloadSpec> spec = ParseWorkloadSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(spec.status().message().find("duplicate organization 'MX'"),
            std::string::npos)
      << spec.status().message();
}

TEST(SpecParserTest, BudgetRejectedInSinglePathMode) {
  const char* bad =
      "class A 10 10 1\nattr A n string\npath A n\nbudget 1000\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 4"), std::string::npos);
}

constexpr const char* kWorkloadSpec = R"(
class A 1000 100 1
class B 500 50 2
class C 100 100 1
ref A to_b B multi
ref B to_c C
attr C name string
load C 0.1 0.1 0.1        # default: applies to every path
path A to_b to_c name
load A 0.5 0.1 0.1
load B 0.2 0.1 0.1
path B to_c name
load B 0.3 0.2 0.1
load C 0.4 0.1 0.1        # overrides the default for this path
budget 123456
)";

TEST(SpecParserTest, ParsesAWorkloadSpec) {
  Result<WorkloadSpec> spec = ParseWorkloadSpec(kWorkloadSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  WorkloadSpec& s = spec.value();
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(s.paths[0].path.ToString(s.schema), "A.to_b.to_c.name");
  EXPECT_EQ(s.paths[1].path.ToString(s.schema), "B.to_c.name");
  EXPECT_TRUE(s.has_budget);
  EXPECT_DOUBLE_EQ(s.joint_options.storage_budget_bytes, 123456);

  const ClassId a = s.schema.FindClass("A");
  const ClassId b = s.schema.FindClass("B");
  const ClassId c = s.schema.FindClass("C");
  // Per-path loads bind to the preceding path directive.
  EXPECT_DOUBLE_EQ(s.paths[0].load.Get(a).query, 0.5);
  EXPECT_DOUBLE_EQ(s.paths[1].load.Get(a).query, 0);
  EXPECT_DOUBLE_EQ(s.paths[1].load.Get(b).query, 0.3);
  // The default load before the first path reaches both paths, unless the
  // path overrides it.
  EXPECT_DOUBLE_EQ(s.paths[0].load.Get(c).query, 0.1);
  EXPECT_DOUBLE_EQ(s.paths[1].load.Get(c).query, 0.4);
}

TEST(SpecParserTest, WorkloadAllowsLoadRedeclaredPerPath) {
  // The same class may carry a load in each path section (and in the
  // default section) — only a repeat within one section is an error.
  Result<WorkloadSpec> spec = ParseWorkloadSpec(kWorkloadSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
}

TEST(SpecParserTest, WorkloadDuplicateLoadInOneSectionRejected) {
  std::string bad = kWorkloadSpec;
  bad += "load B 0.9 0.9 0.9\nload B 0.1 0.1 0.1\n";
  Result<WorkloadSpec> spec = ParseWorkloadSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("duplicate load"),
            std::string::npos);
}

TEST(SpecParserTest, WorkloadDuplicateBudgetRejected) {
  std::string bad = kWorkloadSpec;
  bad += "budget 99\n";
  Result<WorkloadSpec> spec = ParseWorkloadSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("duplicate budget"),
            std::string::npos);
}

TEST(SpecParserTest, WorkloadWithoutPathsRejected) {
  EXPECT_FALSE(ParseWorkloadSpec("class A 10 10 1\n").ok());
}

TEST(SpecParserTest, WorkloadSpecFileDrivesTheWorkloadAdvisor) {
  Result<WorkloadSpec> spec =
      ParseWorkloadSpecFile(std::string(PATHIX_SOURCE_DIR) +
                            "/examples/specs/vehicle_workload.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  WorkloadSpec& s = spec.value();
  ASSERT_EQ(s.paths.size(), 3u);
  ASSERT_TRUE(s.has_budget);
  Result<WorkloadRecommendation> rec = AdviseWorkload(
      s.schema, s.catalog, s.paths, s.options, s.joint_options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // The shipped budget binds and stays respected.
  EXPECT_LE(rec.value().joint.total_storage_bytes,
            s.joint_options.storage_budget_bytes + 1e-6);
  EXPECT_LE(rec.value().total_cost_greedy,
            rec.value().total_cost_independent + 1e-9);
}

constexpr const char* kTraceSpec = R"(
class A 1000 100 1
class B 500 50 2
class C 100 100 1
ref A to_b B multi
ref B to_c C
attr C name string
path A to_b to_c name
orgs MX NIX NONE

populate A 400
populate B 200 0 1.5
populate C 50 50
trace_seed 99

phase hot 1000
mix A 0.8 0.1 0.1

phase cold 500
mix A 0.1 0.5 0.4
mix C 0.2 0.0 0.0
)";

TEST(SpecParserTest, ParsesACompleteTraceSpec) {
  Result<TraceSpec> spec = ParseTraceSpec(kTraceSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();
  EXPECT_EQ(s.seed, 99u);
  ASSERT_EQ(s.populate.size(), 3u);
  EXPECT_EQ(s.populate[0].count, 400);
  // Defaulted distinct pool: a tenth of the objects.
  EXPECT_EQ(s.populate[0].distinct_values, 40);
  EXPECT_DOUBLE_EQ(s.populate[1].nin, 1.5);
  EXPECT_EQ(s.populate[2].distinct_values, 50);
  ASSERT_EQ(s.phases.size(), 2u);
  EXPECT_EQ(s.phases[0].name, "hot");
  EXPECT_EQ(s.phases[0].ops, 1000u);
  EXPECT_DOUBLE_EQ(s.phases[0].mix().Get(s.schema.FindClass("A")).query, 0.8);
  EXPECT_DOUBLE_EQ(s.phases[1].mix().Get(s.schema.FindClass("C")).query, 0.2);
  ASSERT_EQ(s.options.orgs.size(), 3u);
  EXPECT_EQ(s.options.orgs[2], IndexOrg::kNone);
}

TEST(SpecParserTest, TraceDirectivesRejectedOutsideTraceSpecs) {
  std::string bad = kGoodSpec;
  bad += "phase hot 100\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("only valid in trace specs"),
            std::string::npos);
}

TEST(SpecParserTest, TraceMixBeforePhaseRejected) {
  const char* bad =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\nmix A 1 0 0\nphase hot 10\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("mix before the first phase"),
            std::string::npos);
}

TEST(SpecParserTest, TracePhaseWithoutMixRejected) {
  const char* bad =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\nphase hot 10\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("has no positive mix weights"),
            std::string::npos);
  // All-zero weights are as empty as no mix lines at all: the phase could
  // never execute an operation.
  const char* zero =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\nphase hot 10\nmix A 0 0 0\nphase cold 10\nmix A 1 0 0\n";
  Result<TraceSpec> zero_spec = ParseTraceSpec(zero);
  ASSERT_FALSE(zero_spec.ok());
  EXPECT_NE(zero_spec.status().message().find("'hot' has no positive"),
            std::string::npos);
}

TEST(SpecParserTest, TraceNumericRangesAreBounded) {
  // Out-of-range values must be line-numbered errors, never UB casts.
  const char* big_seed =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\ntrace_seed 5000000000\nphase hot 10\nmix A 1 0 0\n";
  EXPECT_FALSE(ParseTraceSpec(big_seed).ok());
  const char* big_pop =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 2000000000000\nphase hot 10\nmix A 1 0 0\n";
  EXPECT_FALSE(ParseTraceSpec(big_pop).ok());
  const char* big_phase =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "populate A 10\nphase hot 1e16\nmix A 1 0 0\n";
  EXPECT_FALSE(ParseTraceSpec(big_phase).ok());
}

TEST(SpecParserTest, TraceRequiresPopulateAndPhases) {
  const char* no_populate =
      "class A 10 10 1\nattr A name string\npath A name\n"
      "phase hot 10\nmix A 1 0 0\n";
  EXPECT_FALSE(ParseTraceSpec(no_populate).ok());
  const char* no_phase =
      "class A 10 10 1\nattr A name string\npath A name\npopulate A 10\n";
  EXPECT_FALSE(ParseTraceSpec(no_phase).ok());
}

TEST(SpecParserTest, TraceDuplicatePopulateAndMixRejected) {
  std::string dup_pop = kTraceSpec;
  dup_pop += "populate A 5\n";
  // populate must precede phases structurally? No — but a duplicate class is
  // an error wherever it appears.
  EXPECT_FALSE(ParseTraceSpec(dup_pop).ok());
  std::string dup_mix = kTraceSpec;
  dup_mix += "mix B 1 2 3\n";  // first B mix of phase 'cold': fine
  ASSERT_TRUE(ParseTraceSpec(dup_mix).ok());
  dup_mix += "mix B 1 2 3\n";
  EXPECT_FALSE(ParseTraceSpec(dup_mix).ok());
}

TEST(SpecParserTest, TraceClassesOutsidePathScopeRejected) {
  std::string bad = kTraceSpec;
  bad += "class D 10 10 1\n";
  // D is declared but not in scope(A.to_b.to_c.name).
  std::string bad_mix = bad + "mix D 1 0 0\n";
  Result<TraceSpec> mixed = ParseTraceSpec(bad_mix);
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().message().find("is not in the scope of path"),
            std::string::npos);
  std::string bad_pop = bad + "populate D 5\n";
  EXPECT_FALSE(ParseTraceSpec(bad_pop).ok());
}

TEST(SpecParserTest, TraceSpecFileShipsThreePhases) {
  Result<TraceSpec> spec = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(s.paths[0].id, "default");
  EXPECT_EQ(s.paths[0].path.ToString(s.schema), "Person.owns.man.divs.name");
  ASSERT_EQ(s.phases.size(), 3u);
  EXPECT_EQ(s.phases[0].name, "registry");
  EXPECT_EQ(s.phases[1].name, "ingest");
  EXPECT_EQ(s.phases[2].name, "audit");
  EXPECT_EQ(s.populate.size(), 6u);
}

// ------------------------------------------------- multi-path trace specs

constexpr const char* kJointTraceSpec = R"(
class A 1000 100 1
class B 500 50 2
class C 100 100 1
ref A to_b B multi
ref B to_c C
attr C name string

path deep A to_b to_c name
path tail B to_c name
orgs MX NIX NONE
budget 50000

populate A 400
populate B 200 0 1.5
populate C 50 50
trace_seed 99

phase hot 1000
mix deep A 0.7 0.1 0.1
mix tail B 0.1 0.0 0.0

phase cold 500
mix deep A 0.1 0.5 0.4
mix tail C 0.2 0.0 0.0
)";

TEST(SpecParserTest, ParsesAMultiPathTraceSpecWithBudget) {
  Result<TraceSpec> spec = ParseTraceSpec(kJointTraceSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(s.paths[0].id, "deep");
  EXPECT_EQ(s.paths[1].id, "tail");
  EXPECT_TRUE(s.has_budget);
  EXPECT_DOUBLE_EQ(s.storage_budget_bytes, 50000);
  const ClassId a = s.schema.FindClass("A");
  const ClassId b = s.schema.FindClass("B");
  const ClassId c = s.schema.FindClass("C");
  ASSERT_EQ(s.phases.size(), 2u);
  // Queries bind to their named path; updates are path-agnostic and land
  // in the resolved per-path mixes of every path whose scope has the class.
  EXPECT_DOUBLE_EQ(s.phases[0].queries[0].at(a), 0.7);
  EXPECT_EQ(s.phases[0].queries[1].count(a), 0u);
  EXPECT_DOUBLE_EQ(s.phases[0].queries[1].at(b), 0.1);
  EXPECT_DOUBLE_EQ(s.phases[0].updates.at(a).insert, 0.1);
  EXPECT_DOUBLE_EQ(s.phases[0].mixes[0].Get(a).query, 0.7);
  EXPECT_DOUBLE_EQ(s.phases[0].mixes[0].Get(a).insert, 0.1);
  // A is outside tail's scope: its churn does not enter tail's mix.
  EXPECT_DOUBLE_EQ(s.phases[0].mixes[1].Get(a).insert, 0.0);
  EXPECT_DOUBLE_EQ(s.phases[1].mixes[1].Get(c).query, 0.2);
}

TEST(SpecParserTest, TraceMixOnUndeclaredPathRejectedWithLineNumber) {
  std::string bad = kJointTraceSpec;
  bad += "mix sideways C 0.5 0 0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line"), std::string::npos);
  EXPECT_NE(spec.status().message().find(
                "path 'sideways', which is not declared"),
            std::string::npos);
}

TEST(SpecParserTest, MultiPathTracesRequireNamedPaths) {
  // An unnamed path is fine while it is alone, but the moment a second one
  // is declared the trace is unusable (mix lines cannot direct queries), so
  // the declaration itself is rejected — with the unnamed path's line.
  const char* bad =
      "class A 10 10 1\nclass B 5 5 1\nref A to_b B\nattr B name string\n"
      "path A to_b name\n"
      "path tail B name\n"
      "populate A 10\nphase hot 10\nmix tail B 1 0 0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 5"), std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find("require named paths"),
            std::string::npos);
  // Workload specs (no mixes) keep accepting unnamed paths.
  const char* workload =
      "class A 10 10 1\nclass B 5 5 1\nref A to_b B\nattr B name string\n"
      "path A to_b name\n"
      "path tail B name\n";
  EXPECT_TRUE(ParseWorkloadSpec(workload).ok());
}

TEST(SpecParserTest, MultiPathTraceMixMustNameItsPath) {
  std::string bad = kJointTraceSpec;
  bad += "mix C 0.5 0 0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("must name the path"),
            std::string::npos);
}

TEST(SpecParserTest, TraceQueryOutsideNamedPathScopeRejectedWithLine) {
  // A is in deep's scope but not in tail's ([B, C]).
  std::string bad = kJointTraceSpec;
  bad += "mix tail A 0.5 0 0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 26"), std::string::npos)
      << spec.status().message();
  EXPECT_NE(spec.status().message().find(
                "'A' is not in the scope of path 'tail'"),
            std::string::npos);
}

TEST(SpecParserTest, TraceUpdateOutsideEveryPathScopeRejectedWithLine) {
  // D is declared but in neither path's scope; its zero query weight passes
  // the per-path check, so the path-agnostic update check must fire.
  std::string bad = kJointTraceSpec;
  bad += "class D 10 10 1\nmix deep D 0 0.5 0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find(
                "'D' is not in any declared path's scope"),
            std::string::npos)
      << spec.status().message();
}

TEST(SpecParserTest, DuplicateUpdateWeightsPerPhaseRejected) {
  // B's churn may be declared once per phase, whichever path names it.
  std::string bad = kJointTraceSpec;
  bad += "mix deep B 0.0 0.1 0.0\nmix tail B 0.0 0.2 0.0\n";
  Result<TraceSpec> spec = ParseTraceSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("updates are path-agnostic"),
            std::string::npos)
      << spec.status().message();
}

TEST(SpecParserTest, DuplicateAndCollidingPathNamesRejected) {
  std::string dup = kJointTraceSpec;
  dup = dup.substr(0, dup.find("orgs")) +
        "path deep A to_b to_c name\n" + dup.substr(dup.find("orgs"));
  Result<TraceSpec> spec = ParseTraceSpec(dup);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("duplicate path name 'deep'"),
            std::string::npos);

  // The other collision direction: a `path NAME ...` whose first token is a
  // declared class always parses as the unnamed form, so a name can never
  // shadow an existing class; declaring a class *after* a path of that name
  // is the case that needs the explicit rejection.
  const char* collide =
      "class A 10 10 1\nclass B 5 5 1\nref A to_b B\nattr B name string\n"
      "path deep A to_b name\nclass deep 10 10 1\n";
  Result<WorkloadSpec> w = ParseWorkloadSpec(collide);
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("collides with a path name"),
            std::string::npos)
      << w.status().message();
}

TEST(SpecParserTest, SinglePathSpecsStillRejectSecondPaths) {
  std::string bad = kGoodSpec;
  bad += "path Division name\n";
  Result<AdvisorSpec> spec = ParseAdvisorSpec(bad);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("only one path per spec"),
            std::string::npos);
}

TEST(SpecParserTest, JointTraceSpecFileShipsTwoPathsAndABindingBudget) {
  Result<TraceSpec> spec = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(s.paths[0].id, "people");
  EXPECT_EQ(s.paths[1].id, "fleet");
  EXPECT_EQ(s.paths[0].path.ToString(s.schema), "Person.owns.man.divs.name");
  EXPECT_EQ(s.paths[1].path.ToString(s.schema), "Vehicle.man.divs.name");
  EXPECT_TRUE(s.has_budget);
  ASSERT_EQ(s.phases.size(), 3u);
}

TEST(SpecParserTest, DocumentStoreSpecFileParsesAndAdvises) {
  Result<AdvisorSpec> spec =
      ParseAdvisorSpecFile(std::string(PATHIX_SOURCE_DIR) +
                           "/examples/specs/document_store.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  AdvisorSpec& s = spec.value();
  EXPECT_EQ(s.path.ToString(s.schema), "Submission.review.forum.name");
  Result<Recommendation> rec =
      AdviseIndexConfiguration(s.schema, s.path, s.catalog, s.load, s.options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec.value().result.config.Validate(s.path.length()).ok());
}

}  // namespace
}  // namespace pathix
