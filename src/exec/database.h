#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/epoch_ptr.h"
#include "common/mutex.h"
#include "exec/naive_evaluator.h"
#include "index/physical_config.h"
#include "obs/metrics.h"

/// \file database.h
/// \brief SimDatabase: the simulated object database — schema + paged object
/// store + a set of *named configured paths*, each optionally carrying a
/// physical index configuration. Physical parts that are structurally
/// identical across paths (same class/attribute sequence and organization)
/// are built once and shared through the database's PhysicalPartRegistry.
/// Every operation counts page accesses, the paper's cost metric.
///
/// Paths are addressed by id only: the paper's single path is one
/// registered id (RegisterPath, then ConfigureIndexes / Query on that id),
/// exactly as each path of a multi-path workload is.
///
/// Concurrency model. Each path's installed configuration is an *epoch*
/// (common/epoch_ptr.h): queries load a snapshot and never block — an
/// online reconfiguration builds the incoming configuration off to the
/// side and publishes it atomically, while in-flight queries finish on the
/// old epoch's parts (kept alive by their snapshot; the registry releases
/// them when the last one drains). Updates take the commit mutex *shared*
/// so that a configuration swap (exclusive) observes a quiescent point
/// between updates: index maintenance always runs against a configuration
/// that is still current when the op's probe closes. Structure access
/// below this level is latched per part and sharded per class
/// (index/part_registry.h, storage/object_store.h). After its probe, an
/// operation's accounting goes to per-thread cells — the pager's tallies
/// (storage/pager.h) and the metric counters and histograms
/// (obs/metrics.h) — and Notify finds the observer with one atomic load,
/// so a query writes no cache line that other serving threads write
/// before the observer runs. Path *registration* is not serialized
/// against serving — register every path before spinning up worker
/// threads.

namespace pathix {

/// Name of a configured path within one database ("people_by_division").
using PathId = std::string;

/// Kind of a counted database operation, as seen by a DbOpObserver.
enum class DbOpKind { kQuery, kInsert, kDelete };

/// One observed operation. Queries carry the id of the path they were
/// evaluated on; inserts and deletions are path-agnostic (they maintain the
/// indexes of every configured path whose scope contains the class), so
/// \p path is empty for them. \p pages is the operation's measured page
/// delta (a ScopedAccessProbe around the store/index work, closed before
/// the observer fires — observer-triggered rebuilds are not included), so
/// observers can price the live traffic they watch: the WorkloadMonitor
/// turns the naive-scan deltas into the priced current-cost of an
/// unconfigured path.
struct DbOpEvent {
  DbOpKind kind = DbOpKind::kQuery;
  ClassId cls = kInvalidClass;    ///< operated/queried class
  std::string_view path;          ///< queried path id; empty for updates
  bool naive = false;             ///< query evaluated by naive scan
  AccessStats pages;              ///< measured page accesses of the op
};

/// \brief Observer of the database's operation stream (the hook the online
/// index-selection subsystem estimates the live load distribution from).
///
/// Events fire as the *last* action of Insert/Delete/Query (after the store
/// and every configured index have been updated and the result has been
/// materialized), so an observer may reconfigure the database's indexes —
/// including from within its own callback — without invalidating the
/// operation in flight. Observer work is expected to be uncounted (catalog
/// reads, index rebuilds); it does not pollute the pager's access stats
/// beyond what its own actions explicitly charge.
class DbOpObserver {
 public:
  virtual ~DbOpObserver() = default;

  /// Queries report both indexed and naive evaluations; failed operations
  /// (unknown oid, no configuration) are not reported. \p ev.path views
  /// the database's key for the path in its path map, which is never
  /// erased: the view stays valid for the database's lifetime, so an
  /// observer may keep it past the callback (the WorkloadMonitor batches
  /// it until its next drain) but not past the database.
  virtual void OnOperation(const DbOpEvent& ev) = 0;
};

class SimDatabase {
 public:
  SimDatabase(Schema schema, PhysicalParams params)
      : schema_(std::move(schema)),
        pager_(static_cast<std::size_t>(params.page_size)),
        store_(&pager_) {}

  // The physical configurations hold pointers into this object; pin it.
  SimDatabase(const SimDatabase&) = delete;
  SimDatabase& operator=(const SimDatabase&) = delete;

  const Schema& schema() const { return schema_; }
  Pager& pager() { return pager_; }
  const Pager& pager() const { return pager_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  // ------------------------------------------------------------- updates

  /// Stores a new object and maintains the configured indexes of every
  /// path; a physical part shared between paths is maintained exactly once.
  /// Returns the assigned oid.
  Oid Insert(ClassId cls, AttrValues attrs);

  /// Deletes an object, maintaining the configured indexes (including the
  /// preceding subpath's key record, Definition 4.2) of every path.
  Status Delete(Oid oid);

  // ------------------------------------------------------------- indexing

  /// Registers (or re-registers) \p path under \p id for naive evaluation
  /// and later (Re)ConfigureIndexes, without building any indexes.
  /// Re-registering drops the id's installed configuration. Not serialized
  /// against serving: register paths before starting worker threads.
  Status RegisterPath(const PathId& id, const Path& path);

  /// Builds the physical indexes of \p config on the registered path \p id
  /// from the current store contents (uncounted). Replaces that path's
  /// previous configuration *before* acquiring the new parts, so this is a
  /// fresh build except for parts shared with other paths' configurations.
  /// FailedPrecondition when \p id is not registered.
  Status ConfigureIndexes(const PathId& id, IndexConfiguration config);

  /// Switches the index layout on path \p id without touching parts that
  /// survive into the new configuration or are shared with another path's
  /// configuration (same structural identity): those keep their physical
  /// structures; only genuinely new parts are built from the store
  /// (uncounted — the transition's page price is modeled by
  /// online/transition_cost.h). FailedPrecondition when \p id is not
  /// registered.
  Status ReconfigureIndexes(const PathId& id, IndexConfiguration config);

  /// Reconfigures several paths as one step: every incoming configuration
  /// is created while *all* outgoing ones are still alive, so a part moving
  /// between paths is never dropped and rebuilt mid-batch (the joint
  /// transition cost model prices exactly this semantics).
  Status ReconfigureIndexes(
      const std::vector<std::pair<PathId, IndexConfiguration>>& changes);

  /// Drops path \p id's installed configuration (keeps the registration).
  void DropIndexes(const PathId& id);

  bool has_path(const PathId& id) const { return paths_.count(id) > 0; }
  bool has_indexes(const PathId& id) const;

  /// The installed configuration of path \p id. DCHECKs that one is
  /// installed. The reference is borrowed from the *current* epoch:
  /// callers must rule out a concurrent swap (the controller does — it is
  /// the only swapper and holds its check mutex; concurrent *queries* go
  /// through Query/QueryAny, which pin their own snapshot).
  const PhysicalConfiguration& physical(const PathId& id) const;
  const Path& path(const PathId& id) const;

  /// Registered path ids, in id order (deterministic).
  std::vector<PathId> path_ids() const;

  /// The shared-part registry (inspection: distinct structures, refcounts).
  const PhysicalPartRegistry& registry() const { return registry_; }

  /// This database's own metrics registry (obs/metrics.h). Every counted
  /// operation lands here — per-path query counters (split indexed/naive),
  /// insert/delete counters, and per-op latency/page histograms — so two
  /// databases replaying the same trace in one process report disjoint
  /// counters. Instruments record as the op completes; pager and part
  /// registry counters enter via SnapshotMetrics()'s mirror step.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Mirrors the pager's and part registry's counters into metrics() and
  /// returns the combined point-in-time snapshot.
  obs::MetricsSnapshot SnapshotMetrics();

  /// Registers \p observer for the operation stream (nullptr detaches).
  /// At most one observer; the caller keeps ownership and must detach (or
  /// outlive the database) before the observer dies.
  void SetObserver(DbOpObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  // -------------------------------------------------------------- queries

  /// Evaluates "A_n = value" w.r.t. \p target_class via path \p id's
  /// configured indexes. Counted (index pages only — the searching cost of
  /// Section 4).
  Result<std::vector<Oid>> Query(const PathId& id, const Key& ending_value,
                                 ClassId target_class,
                                 bool include_subclasses = false);

  /// What QueryAny evaluated and how.
  struct QueryOutcome {
    std::vector<Oid> oids;
    bool naive = false;  ///< evaluated by naive scan (no configuration)
  };

  /// Evaluates via path \p id's configured indexes when a configuration is
  /// installed, by naive scan otherwise — deciding on *one* epoch snapshot,
  /// so the answer is consistent even when a reconfiguration lands between
  /// the decision and the evaluation (the has_indexes()-then-Query idiom is
  /// racy under concurrency; serving threads use this instead). Accounting
  /// and observer events are identical to Query/QueryNaive.
  Result<QueryOutcome> QueryAny(const PathId& id, const Key& ending_value,
                                ClassId target_class,
                                bool include_subclasses = false);

  /// The same query evaluated by scanning and navigating path \p id
  /// (no indexes).
  Result<std::vector<Oid>> QueryNaive(const PathId& id,
                                      const Key& ending_value,
                                      ClassId target_class,
                                      bool include_subclasses = false);

  // ------------------------------------------------------------ integrity

  /// Structural invariants of every configured index of every path.
  Status ValidateIndexes() const;

  /// Deep check: NIX contents against ground-truth reachability, and the
  /// MX/MIX trees' structure. Slow; tests only.
  Status ValidateIndexesDeep() const;

 private:
  struct ConfiguredPath {
    Path path;
    /// The path's current configuration epoch (null = unconfigured).
    /// Queries pin a snapshot; commits publish a fresh shared_ptr.
    EpochPtr<PhysicalConfiguration> physical;
    // Metric handles into metrics_, resolved once at RegisterPath so the
    // query hot path updates through pointers (no registry lookup per op).
    obs::Counter* ops = nullptr;        ///< queries via indexes
    obs::Counter* naive_ops = nullptr;  ///< queries via naive scan
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* pages = nullptr;
  };

  /// Dispatches to the registered observer. The pointer is one atomic
  /// load (acquire, pairing with SetObserver's release store), so a read
  /// takes no lock and writes no shared cache line to find its observer;
  /// the callback runs holding no lock at all, since observers reconfigure
  /// the database from within OnOperation.
  void Notify(DbOpKind kind, ClassId cls, const AccessStats& pages,
              std::string_view path = {}, bool naive = false) {
    if (DbOpObserver* observer = observer_.load(std::memory_order_acquire)) {
      observer->OnOperation({kind, cls, path, naive, pages});
    }
  }

  /// Counted indexed evaluation on the pinned snapshot \p phys (the caller
  /// keeps the epoch reference alive across the call): probe, metrics,
  /// observer — the shared body of Query and QueryAny.
  std::vector<Oid> RunIndexedQuery(ConfiguredPath* cp,
                                   const std::string& label,
                                   PhysicalConfiguration* phys,
                                   const Key& ending_value,
                                   ClassId target_class,
                                   bool include_subclasses);

  /// Counted naive evaluation — the shared body of QueryNaive and QueryAny.
  std::vector<Oid> RunNaiveQuery(ConfiguredPath* cp, const std::string& label,
                                 const Key& ending_value,
                                 ClassId target_class,
                                 bool include_subclasses);

  /// Publishes \p next as path \p cp's new configuration epoch and bumps
  /// the epoch counter. Caller holds commit_mu_ exclusively (or is
  /// single-threaded setup code).
  void PublishEpoch(ConfiguredPath* cp,
                    std::shared_ptr<PhysicalConfiguration> next);

  Schema schema_;
  Pager pager_;
  ObjectStore store_;
  obs::MetricsRegistry metrics_;
  // Handles for the path-agnostic update instruments (queries cache theirs
  // per ConfiguredPath). Initialized here so they may follow metrics_ in
  // declaration order.
  obs::Counter* insert_ops_ =
      &metrics_.CounterAt("pathix_db_ops_total", {{"kind", "insert"}});
  obs::Counter* delete_ops_ =
      &metrics_.CounterAt("pathix_db_ops_total", {{"kind", "delete"}});
  obs::Histogram* insert_latency_us_ =
      &metrics_.HistogramAt("pathix_db_op_latency_us", {{"kind", "insert"}});
  obs::Histogram* insert_pages_ =
      &metrics_.HistogramAt("pathix_db_op_pages", {{"kind", "insert"}});
  obs::Histogram* delete_latency_us_ =
      &metrics_.HistogramAt("pathix_db_op_latency_us", {{"kind", "delete"}});
  obs::Histogram* delete_pages_ =
      &metrics_.HistogramAt("pathix_db_op_pages", {{"kind", "delete"}});
  /// Configuration epochs published over this database's lifetime.
  obs::Counter* config_epochs_ =
      &metrics_.CounterAt("pathix_db_config_epochs_total");
  // Node-based map: Path objects need stable addresses (physical
  // configurations point into them).
  std::map<PathId, ConfiguredPath> paths_;
  PhysicalPartRegistry registry_;
  /// The update/commit reader-writer lock: Insert/Delete hold it *shared*
  /// around their probe scope (released before Notify, so an observer may
  /// reconfigure in-callback); the configuration-change APIs hold it
  /// *exclusive*, making every epoch swap a quiescent point between
  /// updates. Queries never touch it — they run on pinned snapshots.
  /// Top of the lock hierarchy (common/mutex.h).
  mutable Mutex commit_mu_;
  std::atomic<DbOpObserver*> observer_{nullptr};
};

}  // namespace pathix
