#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "advisor/candidate_pool.h"
#include "advisor/joint_optimizer.h"
#include "core/advisor.h"

/// \file spec_parser.h
/// \brief Text format for advisor inputs, so the selection pipeline can be
/// driven without writing C++ (the `pathix_advise`, `pathix_workload_advise`
/// and `pathix_online` example tools).
///
/// Line-based; '#' starts a comment. Directives:
///
///   page_size 4096            # physical parameters (optional)
///   oid_len 8
///   key_len 8
///   class Person 200000 20000 1        # name n d nin [obj_len]
///   class Bus : Vehicle 5000 2500 2    # subclass declaration
///   ref Person owns Vehicle multi      # reference attribute [multi]
///   attr Division name string          # atomic attribute (string|int)
///   path Person owns man divs name     # the query path
///   path people Person owns man divs name  # ... with an explicit name
///   load Person 0.3 0.1 0.1            # alpha beta gamma
///   orgs MX MIX NIX NX PX NONE         # candidate set (optional, once)
///   matching_keys 1                    # range-predicate width (optional)
///
/// Every number must be finite ("nan" and "inf" are errors), and a class's
/// n, d, nin and obj_len must lie in [0, 1e15]. Classes must be declared
/// before use; a path must come after the attributes it navigates. A
/// `path` whose first token is not a declared class is a *named* path (the
/// name must not collide with a class name); names identify paths in
/// multi-path trace mixes and become the SimDatabase path ids of the online
/// subsystem.
///
/// Single-path specs (ParseAdvisorSpec) allow exactly one `path`; repeating
/// `path`, `orgs`, or `load` for the same class is an error (with the
/// offending line number) rather than a silent override, and so is naming
/// one organization twice in `orgs`.
///
/// Workload specs (ParseWorkloadSpec) extend the format to many paths:
///
///   path Person owns man divs name     # first workload path
///   load Person 0.3 0.1 0.1            #   its load
///   path Company divs name             # second workload path
///   load Company 0.1 0.1 0.1           #   its load
///   budget 16000000                    # optional storage budget in bytes
///
/// `load` lines *before* the first `path` are defaults applied to every
/// path; `load` lines after a `path` bind to that path (overriding the
/// default for that class). `budget` caps the total bytes of the distinct
/// physical indexes the joint optimizer may choose.
///
/// Trace specs (ParseTraceSpec) extend the *workload* format with a trace
/// section — the input of the online subsystem (`pathix_online`): an
/// initial population and timed operation batches with phase shifts:
///
///   populate Person 5000 200 1.0  # CLASS COUNT [DISTINCT [NIN]]
///   trace_seed 42                 # replay RNG seed (optional)
///   phase reporting 4000          # NAME OPS — a batch of 4000 operations
///   mix Person 0.8 0.1 0.1        # CLASS query insert delete weights
///   phase ingest 3000             # drift: the mix shifts per phase
///   mix Person 0.05 0.6 0.35
///
/// Within a phase, operations are drawn from the normalized union of its
/// `mix` lines. In a *multi-path* trace every path must be named and query
/// weights name the path they hit:
///
///   mix people Person 0.8 0.02 0.02   # PATH CLASS query insert delete
///   mix fleet  Vehicle 0.1 0 0
///
/// Query weights bind to (path, class); insert/delete weights are
/// path-agnostic (one churned object maintains every path's indexes) and
/// may be given at most once per (phase, class). Mixing ops on an
/// undeclared path, or on a class outside the named path's scope, is a
/// line-numbered parse error. `load` lines remain legal and carry the
/// statically *claimed* per-path distribution (what an offline advisor
/// would be given); the phases are the ground truth the trace actually
/// executes. `budget` carries into the online joint controller.
///
/// The parser accepts every workload directive, but a replay runs equality
/// probes on physical indexes: the runners reject `orgs` naming NX or PX
/// and any `matching_keys` other than 1 before they populate
/// (CheckReplayableSpec, online/trace.h).

namespace pathix {

/// Everything the single-path advisor needs, parsed from one spec.
struct AdvisorSpec {
  Schema schema;
  Catalog catalog;
  LoadDistribution load;
  Path path;
  AdvisorOptions options;
};

/// Everything the workload advisor needs, parsed from one spec.
struct WorkloadSpec {
  Schema schema;
  Catalog catalog;
  std::vector<PathWorkload> paths;  ///< .name filled ("#<k>" when unnamed —
                                    ///< '#' starts a comment, so explicit
                                    ///< names can never collide)
  AdvisorOptions options;
  JointOptions joint_options;  ///< carries the storage budget (if any)
  bool has_budget = false;
};

/// Parses a single-path spec. Errors carry the offending line number.
Result<AdvisorSpec> ParseAdvisorSpec(const std::string& text);

/// Reads \p path and parses it as a single-path spec.
Result<AdvisorSpec> ParseAdvisorSpecFile(const std::string& path);

/// Parses a workload spec (one or more paths, optional budget).
Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text);

/// Reads \p path and parses it as a workload spec.
Result<WorkloadSpec> ParseWorkloadSpecFile(const std::string& path);

/// Initial data generation targets for one class of a trace spec
/// (mirrors datagen's ClassGenSpec without pulling exec into io).
struct TracePopulate {
  ClassId cls = kInvalidClass;
  int count = 0;
  int distinct_values = 1;  ///< distinct path-attribute values
  double nin = 1.0;         ///< average values per object
};

/// One operation batch of a trace: \p ops operations drawn from the
/// normalized union of the per-path query weights and the per-class update
/// weights.
struct TracePhase {
  std::string name;
  std::uint64_t ops = 0;

  /// Query weights per path (parallel to TraceSpec::paths) per class.
  std::vector<std::map<ClassId, double>> queries;
  /// Insert/delete weights per class (path-agnostic; .query is unused).
  std::map<ClassId, OpLoad> updates;

  /// Per-path view on the same scale: queries[p] as the alpha frequencies,
  /// the updates of classes in path p's scope as beta/gamma. Parallel to
  /// TraceSpec::paths — what a per-phase joint oracle solves on.
  std::vector<LoadDistribution> mixes;

  /// The single-path view: the sole path's resolved mix. Multi-path
  /// phases (and unresolved programmatic ones) must use mixes[p] instead.
  const LoadDistribution& mix() const {
    PATHIX_DCHECK(mixes.size() == 1);
    return mixes.front();
  }

  /// Programmatic construction for single-path traces (benchmarks): sets
  /// queries/updates/mixes from one combined distribution, every class
  /// assumed in scope.
  void SetSinglePathMix(const LoadDistribution& combined);
};

/// One path of a trace spec.
struct TracePath {
  std::string id;  ///< SimDatabase path id (spec name, or "default"/"p<k>")
  Path path;
  LoadDistribution claimed_load;  ///< the spec's `load` lines, if any
};

/// Everything the online experiment needs, parsed from one trace spec.
struct TraceSpec {
  Schema schema;
  Catalog catalog;
  std::vector<TracePath> paths;
  AdvisorOptions options;
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  bool has_budget = false;
  std::uint32_t seed = 7;
  std::vector<TracePopulate> populate;
  std::vector<TracePhase> phases;
};

/// Parses a trace spec (one or more paths + populate/phase/mix sections).
Result<TraceSpec> ParseTraceSpec(const std::string& text);

/// Reads \p path and parses it as a trace spec.
Result<TraceSpec> ParseTraceSpecFile(const std::string& path);

}  // namespace pathix
