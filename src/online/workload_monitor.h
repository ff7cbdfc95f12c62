#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_slot.h"
#include "exec/database.h"
#include "workload/load.h"

/// \file workload_monitor.h
/// \brief Exponentially-decayed estimation of the live load distribution,
/// per class and per path.
///
/// The paper's advisor assumes LD_{A_n} is known up front; the online
/// subsystem instead observes the operation stream of a SimDatabase and
/// maintains decayed operation counts. Queries are attributed to the path
/// they ran on (a workload of overlapping paths has one query load *per
/// path*); insertions and deletions are path-agnostic — one object churn
/// maintains the indexes of every path whose scope contains the class, so
/// its frequency enters every such path's load, exactly the accounting
/// under which the workload advisor charges a shared index's maintenance
/// once. Old traffic fades with a configurable half-life, so the estimate
/// tracks drift with O(paths x classes) state and O(1) amortized work per
/// operation — no unbounded history.
///
/// Observing is cheap so that serving threads do not queue on the monitor:
/// an observed operation draws its op index from one atomic counter and
/// appends a pending record to its own thread's batch (a ThreadCells cell,
/// common/thread_slot.h). The decayed counters are folded only by a
/// *drain*: every reader drains all batches under the monitor mutex before
/// it reads, and a thread whose batch reaches kMonitorBatchCap records
/// drains on its own, so pending memory stays bounded. A drain folds the
/// records in op-index order with the arithmetic an immediate fold would
/// use, so one thread sees bit-identical estimates whenever it drains.

namespace pathix {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Pending records per thread batch before the observing thread drains
/// (48-byte records: the 16 batches plus the drain's sort buffer stay under
/// 1 MB).
inline constexpr std::size_t kMonitorBatchCap = 512;

/// One drift check's view of a WorkloadMonitor: every estimate the check
/// reads, taken from a single drain (WorkloadMonitor::Snapshot).
struct MonitorSnapshot {
  /// The op count the drain folded up to: the estimates' "now".
  std::uint64_t op_index = 0;
  /// Decayed total weight across all paths, classes and kinds: the shared
  /// scale every estimate below is normalized by.
  double decayed_total = 0;
  /// Per requested path, in request order: the path's query frequencies
  /// plus the update frequencies of the classes in its scope.
  std::vector<LoadDistribution> loads;
  /// Per requested path: decayed measured pages of its *naive-scan*
  /// queries per observed operation — the priced current cost of an
  /// unconfigured path, directly comparable to the cost model's expected
  /// pages per operation. Zero until a naive query on the path is observed.
  std::vector<double> naive_pages_per_op;
};

/// \brief Decayed per-path per-class query counters plus per-class update
/// counters.
///
/// Counts decay by factor 2^(-1/half_life) per observed operation, applied
/// lazily: each entry remembers the operation index it was last folded at.
/// A stationary stream converges to weights proportional to the true mix;
/// after a phase shift the old phase's influence halves every half_life
/// operations. All estimates are normalized by the *shared* decayed total,
/// so per-path loads are mutually comparable (the joint optimizer's
/// max-across-uses maintenance charge relies on a common scale).
///
/// Batches and the drain. Observe takes no monitor lock: it appends (op
/// index, kind, class, path view, naive flag, logical pages) to the calling
/// thread's batch under that batch's leaf cell mutex. A drain holds mu_,
/// moves every batch's records out, sorts them by op index, folds each
/// into its entry, and only then reads the op counter as the estimates'
/// "now" — so every folded index is at most now. Estimates reflect the
/// records appended before the drain; an op whose index was drawn but whose
/// record is still on its way is folded by a later drain.
///
/// Late records. With several threads, a record can reach a drain after a
/// record with a higher index was folded into the same entry (its thread
/// drew the index first but appended later). It is added at its own age,
/// weight x decay^(as_of - index), leaving the entry's as_of in place. One
/// thread (or threads that never overlap) never produces a late record:
/// its folds run in op order on the same operands as an immediate fold.
class WorkloadMonitor {
 public:
  /// \p half_life_ops <= 0 disables decay (plain counting).
  explicit WorkloadMonitor(double half_life_ops = 512);

  /// Records one operation and returns the index it was assigned (1 for
  /// the first observation). Queries are keyed by \p ev.path (empty path =
  /// the anonymous single-path stream); updates are keyed by class only.
  /// The record keeps the \p ev.path view until the next drain, so the
  /// viewed string must outlive the monitor's pending batches (a
  /// SimDatabase's events view its path-map keys, which live as long as
  /// the database).
  std::uint64_t Observe(const DbOpEvent& ev) EXCLUDES(mu_);

  /// The estimates for the workload's paths \p paths, path i with the
  /// update classes \p scopes[i], all from one drain: every estimate is
  /// normalized at one op count, so the shared update frequencies are the
  /// same in every path's load even while other threads observe.
  MonitorSnapshot Snapshot(const std::vector<PathId>& paths,
                           const std::vector<std::set<ClassId>>& scopes) const
      EXCLUDES(mu_);

  /// Drops every count and pending record and restarts the op index at 0.
  /// Call it while no thread observes.
  void Reset() EXCLUDES(mu_);

  /// Mirrors the drift estimate into \p registry (obs/metrics.h): gauges
  /// pathix_monitor_decayed_total, pathix_monitor_query_weight{path} (the
  /// path's share of the decayed weight) and
  /// pathix_monitor_naive_pages_per_op{path}, plus the
  /// pathix_monitor_ops_observed_total counter. Estimates are collected
  /// under mu_ first; metric mutexes are only taken after it is released.
  void ExportMetrics(obs::MetricsRegistry* registry) const EXCLUDES(mu_);

 private:
  struct Entry {
    double count = 0;
    std::uint64_t as_of = 0;  ///< operation index the count is decayed to
  };

  /// One observed operation awaiting its fold.
  struct Pending {
    std::uint64_t index = 0;
    std::string_view path;    ///< read for queries only
    std::uint64_t pages = 0;  ///< logical pages; read for naive queries only
    ClassId cls = kInvalidClass;
    DbOpKind kind = DbOpKind::kQuery;
    bool naive = false;  ///< a naive-scan query
  };

  /// Folds every batch's records into the counters in op-index order and
  /// advances now_ to the op counter.
  void Drain() const REQUIRES(mu_);
  /// Adds \p weight at op \p index: folds \p e forward to \p index first,
  /// or, for a late record (index < as_of), decays the weight instead.
  void Add(Entry* e, std::uint64_t index, double weight) const
      REQUIRES(mu_);
  /// count * decay^(now_ - as_of).
  double Folded(const Entry& e) const REQUIRES_SHARED(mu_);

  /// Decayed total weight across all paths, classes and kinds.
  double DecayedTotalLocked() const REQUIRES_SHARED(mu_);

  /// Taken only by drains (the readers and a full batch), never while a
  /// batch cell is held: mu_ sits above the cells, which are leaves.
  mutable Mutex mu_;
  double decay_ = 1;  ///< per-operation decay factor; constant after ctor
  /// The op-index counter every Observe draws from. Its own cache line:
  /// it is the one word all serving threads write.
  alignas(64) std::atomic<std::uint64_t> ops_{0};
  /// Per-thread pending records, each under its cell's leaf mutex.
  mutable ThreadCells<std::vector<Pending>> batches_;
  /// The drains' sort buffer (capacity kept across drains).
  mutable std::vector<Pending> drained_ GUARDED_BY(mu_);
  /// The op counter as the last drain read it: the estimates' "now".
  mutable std::uint64_t now_ GUARDED_BY(mu_) = 0;
  /// Query counts per (path, class); updates per class. The path maps are
  /// transparent (std::less<>), so a record's string_view path is looked
  /// up without building a PathId. Drains fold into them from the const
  /// readers, hence mutable.
  mutable std::map<PathId, std::unordered_map<ClassId, Entry>, std::less<>>
      queries_ GUARDED_BY(mu_);
  mutable std::unordered_map<ClassId, Entry> inserts_ GUARDED_BY(mu_);
  mutable std::unordered_map<ClassId, Entry> deletes_ GUARDED_BY(mu_);
  /// Decayed measured pages of naive-scan queries, per path (the events'
  /// pages deltas, weighted with the same decay as the counts).
  mutable std::map<PathId, Entry, std::less<>> naive_pages_ GUARDED_BY(mu_);
};

}  // namespace pathix
