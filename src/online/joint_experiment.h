#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/index_config.h"
#include "online/joint_controller.h"
#include "online/trace.h"

/// \file joint_experiment.h
/// \brief The online-selection experiment: replay one trace — one path or
/// many — several ways and compare page costs.
///
///  - online: cold database with every path registered, a
///    JointReconfigurationController attached — pays measured pages plus
///    the modeled joint transition charge of every switch, and its
///    selections respect the spec's storage budget;
///  - joint oracle: before each phase, the joint optimum (under the same
///    budget) for that phase's *true* per-path mixes is installed for free —
///    the per-phase lower bound the regret is measured against;
///  - statics: never-reconfigured assignments, installed up front: the
///    *joint* optimum of the ops-weighted average mixes and of each phase's
///    mixes (all budget-feasible by construction), plus the per-path
///    standalone optima of the averaged mixes — the unbudgeted solve's
///    greedy seed, whose identical structures the registry shares — as the
///    context baseline. They are solved on the oracle's store after it is
///    populated and before its first phase, on the oracle's phase-0
///    statistics.
///
/// For one unbudgeted path the joint statics are the paper's: the offline
/// optimum of the averaged mix and of each phase's mix (the standalone
/// baseline coincides with the averaged one and is deduplicated).
///
/// All runs replay the identical operation stream on one serving worker
/// (serve/serve_driver.h), so the comparison is exact, not sampled. The
/// acceptance envelope compares the online run against the best
/// *budget-feasible* static (the independent baseline may exceed the budget
/// and only bounds what unlimited storage would buy).
///
/// The avg-mix static's replay doubles as the cost model's check against
/// whole replayed traces: per phase and per path, its pager-measured pages
/// sit next to the analytic matrix of its configuration under the phase's
/// true mixes, priced on the statistics the oracle collected entering the
/// phase. The store evolves identically under every configuration, so
/// those are the statistics of the avg-mix run's own store.

namespace pathix {

/// One replay of the whole trace.
struct ExperimentRun {
  std::string label;
  std::vector<PhaseReport> phases;

  double measured_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += static_cast<double>(p.pages);
    return total;
  }
  double transition_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += p.transition_pages;
    return total;
  }
  /// Pager-measured transition I/O (actual drops + actual build I/O).
  double measured_transition_pages() const {
    double total = 0;
    for (const PhaseReport& p : phases) total += p.measured_transition_pages;
    return total;
  }
  /// Measured pages plus modeled transition charges.
  double total_cost() const { return measured_pages() + transition_pages(); }
  /// Measured pages plus *measured* transition I/O — the model-free total
  /// the modeled one is validated against.
  double measured_total_cost() const {
    return measured_pages() + measured_transition_pages();
  }
};

/// A never-reconfigured assignment (one configuration per path) and its
/// replay.
struct JointStaticCandidate {
  std::string label;
  bool respects_budget = false;  ///< solved under the spec's budget
  std::vector<IndexConfiguration> configs;  ///< parallel to spec.paths
  ExperimentRun run;
};

/// One (phase, path) comparison of query-side page traffic.
struct MeasuredVsModeledCell {
  std::string phase;
  PathId path;
  std::uint64_t query_ops = 0;  ///< query operations observed on the path
  /// Pager per-path tally of the phase's queries, per replayed operation.
  double measured_pages_per_op = 0;
  /// The matrix expectation (query + prefix of the installed parts under
  /// the phase's true mix), per operation.
  double modeled_pages_per_op = 0;

  /// measured / modeled (how far reality sits from the model; 0 when the
  /// modeled side is zero).
  double ratio() const {
    return modeled_pages_per_op > 0
               ? measured_pages_per_op / modeled_pages_per_op
               : 0;
  }
};

/// One phase's whole-traffic comparison (queries of every path, index
/// maintenance deduped per distinct structure, store I/O baseline).
struct MeasuredVsModeledPhase {
  std::string phase;
  std::uint64_t ops = 0;
  double measured_pages_per_op = 0;
  double modeled_pages_per_op = 0;

  double ratio() const {
    return modeled_pages_per_op > 0
               ? measured_pages_per_op / modeled_pages_per_op
               : 0;
  }
};

/// The cost model against the static:avg-mix replay (statics[0]). A phase
/// with no operations or no mix weight has no entries; a path gets a cell
/// only when the phase directed at least 50 queries at it (below that,
/// sampling noise drowns the signal).
struct MeasuredVsModeled {
  std::vector<MeasuredVsModeledCell> cells;
  std::vector<MeasuredVsModeledPhase> phases;
};

struct JointExperimentReport {
  /// The online run; its phases' decision slices hold the ledger.
  ExperimentRun online;

  /// The online run's metrics registry (obs/metrics.h), snapshotted twice:
  /// the baseline right after Populate() and the final state after the last
  /// phase with pager, part registry and controller counters mirrored in.
  /// Counter deltas between the two are exactly the replayed operations —
  /// the invariant the obs_smoke cross-check asserts.
  obs::MetricsSnapshot online_metrics_baseline;
  obs::MetricsSnapshot online_metrics;
  /// One snapshot per phase, taken right after the phase finished (counters
  /// mirrored in). DeltaSince between consecutive entries (or the baseline)
  /// is the phase's own window — the per-phase percentile tables of the
  /// decision ledger's phase_summary records.
  std::vector<obs::MetricsSnapshot> online_phase_metrics;

  ExperimentRun oracle;
  /// Per phase, per path: the joint oracle's installed configurations.
  std::vector<std::vector<IndexConfiguration>> oracle_configs;

  /// statics[0] is always the avg-mix joint optimum (label "avg-mix").
  std::vector<JointStaticCandidate> statics;
  int best_static_joint = -1;  ///< cheapest budget-respecting static

  /// Measured vs modeled on statics[0]'s replay (buffered when the
  /// experiment runs through a buffer pool).
  MeasuredVsModeled measured_vs_modeled;

  double best_static_joint_cost() const {
    return best_static_joint >= 0
               ? statics[static_cast<std::size_t>(best_static_joint)]
                     .run.total_cost()
               : 0;
  }
  /// online / best budget-feasible static (< 1: adapting beat every fixed
  /// budget-respecting choice).
  double online_vs_best_static_joint() const {
    const double base = best_static_joint_cost();
    return base > 0 ? online.total_cost() / base : 1.0;
  }
  /// online / joint oracle — the regret factor versus per-phase
  /// clairvoyance under the same budget.
  double online_vs_oracle() const {
    const double base = oracle.total_cost();
    return base > 0 ? online.total_cost() / base : 1.0;
  }
};

/// Replays \p spec's trace online / joint-oracle / static and assembles
/// the report. Deterministic for a fixed spec (including its seed). The
/// online controller runs with ControllerOptionsFor(spec, options). An
/// unreplayable spec fails with CheckReplayableSpec's status
/// (online/trace.h) before anything is populated.
///
/// \p buffer_pages > 0 serves every run (online, oracle, statics) through
/// a buffer pool of that capacity, enabled after population so each replay
/// starts from the same cold pool. 0 (the default) keeps the cost model's
/// cold-buffer assumption: every touch is a charged page access.
Result<JointExperimentReport> RunJointOnlineExperiment(
    const TraceSpec& spec, const ControllerOptions& options,
    std::size_t buffer_pages = 0);

}  // namespace pathix
