#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "exec/database.h"
#include "io/spec_parser.h"
#include "online/joint_controller.h"

/// \file trace.h
/// \brief Executing a trace spec's operations against a SimDatabase.
///
/// Operations are drawn from the active phase's normalized mix with a
/// seeded RNG. On one worker (serve/serve_driver.h) the stream is a pure
/// function of (seed, phase list, live object sets); since every run
/// executes the same inserts and deletes, replaying the same trace under
/// different index configurations sees the *identical* operation sequence
/// — the property the online-vs-oracle regret comparison rests on.
/// Multi-path traces direct each query at the path its mix line names;
/// updates are path-agnostic and maintain every configured path's indexes.

namespace pathix {

/// Measured outcome of one replayed phase.
struct PhaseReport {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t pages = 0;         ///< measured page accesses in the phase
  double transition_pages = 0;     ///< modeled transition charge in the phase
  /// Pager-measured transition I/O in the phase (actual drops + the build
  /// I/O of the parts the registry built for committed switches).
  double measured_transition_pages = 0;
  int reconfigurations = 0;        ///< committed switches (incl. initial)

  // Executed-op decomposition: what actually ran, per kind (and per path
  // for queries, split by evaluation mode). These are the replay-side
  // ground truth the metrics cross-check pins the database's op counters
  // against — they count *successful* operations only, exactly like the
  // counters, so ops == executed ops + noop_ops.
  std::map<std::string, std::uint64_t> query_ops;        ///< indexed, by path
  std::map<std::string, std::uint64_t> naive_query_ops;  ///< naive, by path
  std::uint64_t insert_ops = 0;
  std::uint64_t delete_ops = 0;
  /// Sampled ops that executed nothing (a delete drawn on an empty pool —
  /// the executor's deterministic no-op).
  std::uint64_t noop_ops = 0;

  /// The decision records the controller captured during this phase, each
  /// stamped with the phase name (the per-phase slice of the controller's
  /// ledger — see online/decision_record.h). Empty without a controller. If
  /// the bounded ledger evicted mid-phase the oldest records of the slice
  /// are gone; decisions_captured keeps the true count.
  std::vector<DecisionRecord> decisions;
  std::uint64_t decisions_captured = 0;  ///< all-time delta over the phase

  double total_cost() const {
    return static_cast<double>(pages) + transition_pages;
  }
  /// Measured pages plus *measured* transition I/O (the model-free view).
  double measured_total_cost() const {
    return static_cast<double>(pages) + measured_transition_pages;
  }
};

/// \brief Executes single sampled trace operations against a SimDatabase —
/// the op-level core of the serve driver (serve/serve_driver.h).
///
/// The executor owns no state: it borrows the RNG it draws from and the
/// live-oid pools it samples/mutates, so the serve driver runs one
/// executor per worker thread (each with its own RNG stream and pool shard
/// — zero cross-thread coordination in the op path). Queries go through
/// SimDatabase::QueryAny: the indexed-or-naive decision and the evaluation
/// happen on one configuration epoch, so a reconfiguration landing mid-op
/// can't split them.
class TraceOpExecutor {
 public:
  /// One (path, class, kind) sampling entry of a flattened phase mix.
  struct MixEntry {
    int path_index = -1;  ///< queried path; -1 for updates
    ClassId cls = kInvalidClass;
    DbOpKind kind = DbOpKind::kQuery;
    double weight = 0;
  };

  /// All pointees must outlive the executor. \p rng is the caller's stream
  /// (advanced by every op); \p live the pool the caller's deletes claim
  /// from and its inserts grow.
  TraceOpExecutor(SimDatabase* db, const TraceSpec* spec, std::mt19937* rng,
                  std::map<ClassId, std::vector<Oid>>* live)
      : db_(db), spec_(spec), rng_(rng), live_(live) {}

  /// Flattens a phase's mix into sampling entries, deterministically
  /// ordered (by class, then kind, then path — the order the single-path
  /// format always had). Entries with zero weight are dropped.
  static std::vector<MixEntry> FlattenMix(const TracePhase& phase);

  /// Executes one sampled op, tallying into \p report (successful ops only,
  /// mirroring the database's counters; a delete on an empty pool is the
  /// deterministic no-op).
  void RunOne(const MixEntry& op, PhaseReport* report);

 private:
  void DoQuery(int path_index, ClassId cls, PhaseReport* report);
  void DoInsert(ClassId cls, PhaseReport* report);
  void DoDelete(ClassId cls, PhaseReport* report);

  /// Generation parameters for \p cls (ending-value pool, fan-out).
  const TracePopulate* PopulateSpecFor(ClassId cls) const;

  SimDatabase* db_;
  const TraceSpec* spec_;
  std::mt19937* rng_;
  std::map<ClassId, std::vector<Oid>>* live_;
};

/// The controller options a trace spec implies: \p options with the spec's
/// candidate organizations, physical parameters and storage budget (the
/// tuning knobs — cadence, hysteresis, ledger bounds — are kept). Every
/// runner of a spec (experiments, pathix_serve, the benches) attaches its
/// controller with these.
ControllerOptions ControllerOptionsFor(const TraceSpec& spec,
                                       ControllerOptions options = {});

/// The guard every runner of a spec calls before it populates
/// (RunJointOnlineExperiment, pathix_serve). FailedPrecondition when the
/// candidate organizations include NX/PX (model-only; a replay runs
/// physical configurations) or `matching_keys` is not 1 (a replay runs
/// equality probes only, so a wider predicate prices queries it never
/// runs); InvalidArgument when the spec declares no paths.
Status CheckReplayableSpec(const TraceSpec& spec);

}  // namespace pathix
