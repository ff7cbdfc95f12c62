#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "advisor/joint_optimizer.h"
#include "exec/analyze.h"
#include "exec/database.h"
#include "online/decision_record.h"
#include "online/workload_monitor.h"

/// \file joint_controller.h
/// \brief Online index selection: one controller watching *all* registered
/// paths of a SimDatabase, estimating the drifting load (WorkloadMonitor)
/// and re-solving the workload advisor's joint, storage-budgeted selection
/// problem on every drift check. With hysteresis — so noise cannot thrash
/// the physical layer — it rebuilds the index configurations via
/// SimDatabase::ReconfigureIndexes. Inspired by production advisors (AIM,
/// PAPERS.md): observe, act incrementally, never flap.
///
/// SelectJointConfiguration picks one configuration per path under a
/// shared storage budget with pay-maintenance-once accounting; the
/// controller runs it on the live load estimate. Its per-check costs and
/// transition prices use the same shared-part accounting the physical
/// layer implements (PhysicalPartRegistry): an index shared between paths
/// is maintained once, stored once, and free to "build" for a path when
/// another path already holds it.
///
/// The paper's problem — one path, no budget — is the one-path case. An
/// unbudgeted path contributes its 2^(n-1) recombinations (each block
/// under its cheapest organization) to every drift check. Under a budget a
/// one-level block keeps every organization and a longer block every one
/// but MX and NONE (the candidate pool holds those per level only): with
/// the default MX/MIX/NIX that is 413,403 configurations at n = 10.
/// Past kMaxConfigsPerPath (500,000) the solve fails at once with
/// FailedPrecondition and the controller goes dormant (status()): from
/// n = 20 without a budget, from n = 11 under one with MX/MIX/NIX and from
/// n = 9 with MX/MIX/NIX/NONE. tests/online/joint_equivalence_test.cc pins
/// the one-path commit records on the shipped drift trace to a golden.

namespace pathix {

/// Tuning knobs of the control loop. The defaults favour stability: a
/// reconfiguration must pay for itself within the horizon with 50% margin.
struct ControllerOptions {
  /// Candidate organizations per subpath (AdvisorOptions::orgs of the pool).
  std::vector<IndexOrg> orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX};
  /// Half-life of the monitor's decayed counts, in operations.
  double half_life_ops = 512;
  /// Operations between drift checks (the base interval the adaptive
  /// cadence backs off from; see DriftCadence).
  std::uint64_t check_interval_ops = 256;
  /// Operations observed before the first drift check may run. The initial
  /// install is hysteresis-gated like any other transition, against the
  /// *measured* naive-scan cost of the status quo
  /// (MonitorSnapshot::naive_pages_per_op).
  std::uint64_t warmup_ops = 256;
  /// Amortization horizon H: a switch must win within H future operations.
  double horizon_ops = 4096;
  /// Hysteresis factor theta >= 1: reconfigure only when
  ///   (current_cost - best_cost) * horizon_ops > theta * transition_cost.
  double hysteresis = 1.5;
  /// Storage budget of the selection, in bytes: the total size of the
  /// distinct physical indexes the solver may choose (infinity disables
  /// the constraint).
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  /// Scored candidate alternatives captured into each decision record
  /// (online/decision_record.h). 0 disables candidate capture — the record
  /// itself (workload snapshot, search stats, hysteresis, verdict) is
  /// always kept.
  int decision_top_k = 5;
  /// Ring-buffer bound on the retained decision ledger, one record per
  /// drift check (0 keeps everything). Evictions are counted
  /// (decisions_evicted(), pathix_controller_decisions_evicted_total).
  std::size_t max_decision_log = 4096;
  /// Physical parameters (oid/key lengths etc.) the cost model solves
  /// against; page_size is always taken from the database's pager. Pass the
  /// spec's catalog params when the spec overrides the defaults.
  PhysicalParams physical_params;
};

/// Each drift check that commits nothing multiplies the check interval by
/// kCadenceBackoff, up to kCadenceMaxFactor x check_interval_ops; a commit
/// resets it. Cuts solver work on stationary stretches.
inline constexpr std::uint64_t kCadenceBackoff = 2;
inline constexpr std::uint64_t kCadenceMaxFactor = 4;

/// Scoped ANALYZE re-collects a class's statistics once its live object
/// count moved by more than this fraction since its last collection.
inline constexpr double kStatsRefreshFraction = 0.1;

/// \brief The controller's adaptive drift-check schedule: checks start at
/// the base interval, back off multiplicatively while they commit nothing,
/// and snap back on a committed reconfiguration.
class DriftCadence {
 public:
  void Init(const ControllerOptions& options) {
    base_ = std::max<std::uint64_t>(1, options.check_interval_ops);
    interval_ = base_;
    // First check: the first base-interval boundary past the warmup (the
    // pre-backoff schedule checked every multiple of the base interval).
    const std::uint64_t warmup = std::max<std::uint64_t>(options.warmup_ops, 1);
    next_check_ = ((warmup + base_ - 1) / base_) * base_;
  }

  bool Due(std::uint64_t ops) const { return ops >= next_check_; }

  /// Reschedules after a check at \p ops: a committed reconfiguration
  /// resets the interval, a quiet check backs it off (capped).
  void Reschedule(std::uint64_t ops, bool reconfigured) {
    interval_ = reconfigured ? base_
                             : std::min(base_ * kCadenceMaxFactor,
                                        interval_ * kCadenceBackoff);
    next_check_ = ops + interval_;
  }

  std::uint64_t current_interval() const { return interval_; }
  std::uint64_t base_interval() const { return base_; }
  /// Operation index of the next scheduled check (the value Due compares
  /// against) — what the controller publishes as its lock-free fast-path
  /// hint under concurrency.
  std::uint64_t next_check() const { return next_check_; }

 private:
  std::uint64_t base_ = 1;
  std::uint64_t interval_ = 1;
  std::uint64_t next_check_ = 1;
};

/// \brief Scoped ANALYZE: keeps a catalog over the scopes of a set of paths
/// and re-collects only the classes whose live-object count drifted past
/// the threshold since their last collection (exec/analyze.h's
/// RefreshStatistics). The first refresh collects everything.
class ScopedAnalyzer {
 public:
  /// Refreshes the catalog from \p db for \p paths. Returns true when any
  /// class was re-collected (callers invalidate load-independent caches).
  bool Refresh(const SimDatabase& db, const std::vector<const Path*>& paths,
               const ControllerOptions& options);

  bool has_catalog() const { return has_catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Total (class, path-attribute) collections performed — the ANALYZE work
  /// counter the scoped-refresh tests pin down.
  std::uint64_t class_collections() const { return class_collections_; }
  /// Refresh() calls that re-collected at least one class.
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  Catalog catalog_;
  bool has_catalog_ = false;
  std::map<ClassId, double> live_at_collection_;
  std::uint64_t class_collections_ = 0;
  std::uint64_t refreshes_ = 0;
};

/// \brief The decision ledger's append-only ring: keeps the newest
/// \p max_events entries (all when 0), counts what it evicted, and
/// remembers the all-time committed total. Eviction pops the front of a
/// deque, so it costs O(1) and leaves the retained entries where they are.
template <typename Event>
class BoundedEventLog {
 public:
  explicit BoundedEventLog(std::size_t max_events = 0) : max_(max_events) {}

  void Append(Event event) {
    ++committed_;
    events_.push_back(std::move(event));
    while (max_ > 0 && events_.size() > max_) {
      events_.pop_front();
      ++evicted_;
    }
  }

  /// The retained suffix (newest committed() - evicted() events, in order).
  const std::deque<Event>& events() const { return events_; }
  /// All-time appends, evicted or not.
  std::uint64_t committed() const { return committed_; }
  std::uint64_t evicted() const { return evicted_; }

 private:
  std::size_t max_;
  std::deque<Event> events_;
  std::uint64_t committed_ = 0;
  std::uint64_t evicted_ = 0;
};

/// \brief Attach with db->SetObserver(&controller); detach before either
/// dies. The controller manages every path registered with the database at
/// construction time. All controller work (ANALYZE, solving, index builds)
/// is uncounted; the modeled transition price is accumulated in
/// transition_pages_charged() so experiment totals can include it.
///
/// Thread safety: OnOperation may fire from any number of serving threads
/// concurrently. The monitor absorbs every observation without a shared
/// lock: one atomic op index plus an append to the thread's own batch
/// (online/workload_monitor.h); the batches are folded, in op order, by
/// the drift check's one snapshot read, which every estimate of the check
/// (loads, naive prices, the record's op index) comes from. A due drift
/// check is claimed by exactly one thread via a non-blocking TryLock on
/// the check mutex — everyone else skips past without waiting or
/// double-checking — with a relaxed next-check hint keeping the fast path
/// at one atomic load. The
/// commit runs while the other threads keep serving: in-flight queries
/// finish on the old configuration epochs (SimDatabase's epoch swap). The
/// inspection accessors (decisions(), monitor(), ...) are for quiescent
/// use: call them when no serving thread is driving operations, or accept
/// a racy read.
class JointReconfigurationController : public DbOpObserver {
 public:
  /// \p db must already have its workload paths registered
  /// (SimDatabase::RegisterPath); the controller snapshots the id list.
  /// options.storage_budget_bytes caps the total bytes of the distinct
  /// physical indexes the joint solver may choose.
  explicit JointReconfigurationController(SimDatabase* db,
                                          ControllerOptions options = {});

  void OnOperation(const DbOpEvent& ev) override;

  /// Runs a drift check now, regardless of the check interval.
  void CheckNow();

  const WorkloadMonitor& monitor() const { return monitor_; }
  const ScopedAnalyzer& analyzer() const { return analyzer_; }
  const DriftCadence& cadence() const { return cadence_; }
  const std::vector<PathId>& path_ids() const { return path_ids_; }

  /// All-time committed reconfigurations, the initial install included
  /// (eviction-proof, unlike counting decisions()).
  std::uint64_t events_committed() const { return commits_; }

  /// The retained decision ledger: one record per drift check (the newest
  /// ControllerOptions::max_decision_log records; everything when 0). An
  /// install or switch record is the committed reconfiguration itself.
  const std::deque<DecisionRecord>& decisions() const {
    return decisions_.events();
  }
  /// All-time decision records captured (eviction-proof).
  std::uint64_t decisions_committed() const { return decisions_.committed(); }
  std::uint64_t decisions_evicted() const { return decisions_.evicted(); }

  /// Modeled page cost of every committed transition so far.
  double transition_pages_charged() const { return transition_charged_; }

  /// Pager-measured page cost of every committed transition so far (the
  /// commit records' hysteresis.measured totals).
  double measured_transition_pages_charged() const {
    return measured_transition_charged_;
  }

  std::uint64_t checks_run() const { return checks_; }

  /// Mirrors the controller's counters (checks, commits, evicted records,
  /// modeled and measured transition pages) and the monitor's drift gauges
  /// into the database's metrics registry. Call before exporting.
  void MirrorMetrics() const;

  /// First error the control loop hit; the controller goes dormant after
  /// an error rather than flapping.
  const Status& status() const { return status_; }

 private:
  /// Returns true when a reconfiguration was committed.
  bool Check();

  /// Fills \p rec.changes with every path whose installed configuration
  /// differs from its target, commits them as one batch reconfigure,
  /// accumulates the transition charge and appends \p rec with its
  /// measured side filled. Returns false (and sets status_) on a commit
  /// error.
  bool Commit(const std::vector<JointPathSelection>& targets,
              DecisionRecord rec);

  SimDatabase* db_;
  ControllerOptions options_;
  std::vector<PathId> path_ids_;          ///< sorted (database id order)
  std::vector<std::set<ClassId>> scopes_;  ///< per path, same order
  WorkloadMonitor monitor_;

  /// Serializes drift checks and protects everything below it. Observers
  /// reach this state only through OnOperation's TryLock (or CheckNow);
  /// the const accessors read it quiescently (see the class comment).
  mutable Mutex check_mu_;
  /// Fast-path mirror of cadence_.next_check(): threads skip the TryLock
  /// entirely while the op count is below it.
  std::atomic<std::uint64_t> next_check_hint_{0};
  /// Mirror of !status_.ok(): once the loop errors, every thread stops
  /// checking without having to acquire check_mu_ to find out.
  std::atomic<bool> dormant_{false};

  DriftCadence cadence_;
  ScopedAnalyzer analyzer_;
  /// Candidate pool cached across drift checks: the pool's skeleton and
  /// unit costs depend on the catalog statistics and the path set, not the
  /// drifting load, so models are re-evaluated only when
  /// ScopedAnalyzer::Refresh re-collects a class
  /// (pathix_advisor_pool_cache_hits_total counts the reuses).
  CandidatePoolBuilder pool_builder_;

  BoundedEventLog<DecisionRecord> decisions_;
  std::uint64_t commits_ = 0;
  double transition_charged_ = 0;
  double measured_transition_charged_ = 0;
  std::uint64_t checks_ = 0;
  Status status_;
};

}  // namespace pathix
