#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "online/trace.h"

/// \file serve_driver.h
/// \brief The concurrent serving engine: replays a trace spec's phase mixes
/// from N worker threads against one SimDatabase.
///
/// Thread model. Phase ops are split across workers by stripe: worker w
/// executes ceil/floor(ops/N) operations drawn from its *own* RNG stream
/// and its *own* shard of the live-oid pools, so the op path has zero
/// cross-thread coordination — workers meet only inside the database
/// (latched shards, epoch-pinned queries, the commit mutex's reader side)
/// and at phase boundaries, where per-thread tallies fold into the merged
/// report and the MetricsRegistry.
///
/// Determinism contract. Worker 0's RNG is mt19937(spec.seed), advanced
/// across phases; worker t > 0 derives its stream from (seed, t). Pool
/// shards are striped round-robin from the same deterministic population.
/// With one worker the op sequence is therefore a pure function of the
/// spec, run on the calling thread: the same decision ledger and tallies
/// on every run (tests/online/replay_determinism_test.cc pins
/// the bytes, scripts/obs_smoke.py the shipped ledger). That is the
/// single-threaded replay every run of the experiment serves
/// (online/joint_experiment.h: online, oracle, statics; the avg-mix
/// static doubles as the cost model's check). With N > 1 each worker's op
/// sequence is deterministic; the interleaving between workers is
/// scheduling-dependent, which is the point — it exercises the engine's
/// concurrency under a reproducible per-thread workload.
///
/// Reconfiguration under load. A controller attached to the database runs
/// its drift checks on whichever worker claims them (TryLock arbitration);
/// its commit swaps configuration epochs while the other workers keep
/// serving — in-flight queries finish on the old epoch's parts. The phase
/// report counts the epoch publishes it served through.

namespace pathix {

/// Knobs of one serving run.
struct ServeOptions {
  int threads = 1;  ///< worker count (1 = the deterministic replay)
};

/// Measured outcome of one concurrently-served phase.
struct ServePhaseReport {
  /// The merged phase tallies (ops, pages, per-kind/per-path executed-op
  /// counts, controller charges and decision slice).
  PhaseReport phase;
  int threads = 1;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  /// Per-op wall latency in microseconds, merged across workers (p50/p99
  /// via HistogramData::Percentile).
  obs::HistogramData latency_us;
  /// Configuration epochs the database published during the phase (the
  /// pathix_db_config_epochs_total delta): reconfigurations served through
  /// without stopping.
  std::uint64_t epoch_swaps = 0;
};

/// \brief Serves the phases of one trace spec from N worker threads.
class ServeDriver {
 public:
  /// \p db must already hold the spec's schema; the constructor registers
  /// every spec path under its id. \p spec must outlive the driver.
  ServeDriver(SimDatabase* db, const TraceSpec& spec, ServeOptions options);

  /// Generates the initial population (uncounted, deterministic) and
  /// stripes the live oid pools round-robin across the worker shards.
  void Populate();

  /// Serves phase \p phase_index from options.threads workers. Queries use
  /// the named path's configured indexes when installed, a naive scan
  /// otherwise (the cold-start price an online controller pays before its
  /// first install). With a \p controller (the database's attached
  /// observer), its transition charges, reconfiguration count and
  /// decision-ledger slice over the phase are captured into the report.
  ServePhaseReport RunPhase(std::size_t phase_index,
                            JointReconfigurationController* controller =
                                nullptr);

  int threads() const { return threads_; }

  /// Worker \p w's live-oid pool shard (inspection/tests).
  const std::map<ClassId, std::vector<Oid>>& shard(int w) const {
    return shards_[static_cast<std::size_t>(w)];
  }

  /// All shards merged: total live oids per class, in shard-stripe order
  /// (final statistics collection, test assertions).
  std::map<ClassId, std::vector<Oid>> LiveMerged() const;

 private:
  /// The concurrent run itself: spawn, stripe, merge, flush metrics.
  ServePhaseReport RunPhaseOps(std::size_t phase_index);

  SimDatabase* db_;
  const TraceSpec* spec_;
  int threads_;
  /// Worker RNG streams, persistent across phases (worker 0's is
  /// mt19937(spec.seed)).
  std::vector<std::mt19937> rngs_;
  /// Worker live-oid pool shards: each live oid is in exactly one shard,
  /// so two workers never race to delete the same object by construction
  /// (the store's claim-first Take covers adversarial callers anyway).
  std::vector<std::map<ClassId, std::vector<Oid>>> shards_;
};

}  // namespace pathix
