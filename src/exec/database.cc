#include "exec/database.h"

#include <chrono>
#include <set>

#include "index/nix_index.h"

namespace pathix {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

}  // namespace

Oid SimDatabase::Insert(ClassId cls, AttrValues attrs) {
  Oid oid = kInvalidOid;
  AccessStats io;
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ReaderMutexLock commit_guard(&commit_mu_);
    ScopedAccessProbe probe(&pager_, PageOpKind::kInsert);
    Object obj;
    obj.cls = cls;
    obj.attrs = std::move(attrs);
    const std::shared_ptr<const Object> stored =
        store_.InsertAndGet(std::move(obj));
    oid = stored->oid;
    // Dedup of shared parts only matters with several paths; the
    // single-path hot path skips the bookkeeping entirely.
    const bool shared = paths_.size() > 1;
    std::set<const SubpathIndex*> visited;
    for (auto& [id, cp] : paths_) {
      (void)id;
      if (const std::shared_ptr<PhysicalConfiguration> phys =
              cp.physical.load()) {
        phys->OnInsert(*stored, shared ? &visited : nullptr);
      }
    }
    io = probe.Delta();
  }
  insert_ops_->Increment();
  insert_latency_us_->Observe(MicrosSince(start));
  insert_pages_->Observe(static_cast<double>(io.total()));
  Notify(DbOpKind::kInsert, cls, io);
  return oid;
}

Status SimDatabase::Delete(Oid oid) {
  ClassId cls = kInvalidClass;
  AccessStats io;
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ReaderMutexLock commit_guard(&commit_mu_);
    ScopedAccessProbe probe(&pager_, PageOpKind::kDelete);
    // Claim first: of two racing deleters of the same oid exactly one
    // receives the pre-deletion image and runs the index maintenance from
    // it; the loser observes NotFound and counts nothing.
    const std::shared_ptr<const Object> obj = store_.Take(oid);
    if (obj == nullptr) {
      return Status::NotFound("object " + std::to_string(oid));
    }
    cls = obj->cls;
    const bool shared = paths_.size() > 1;
    std::set<const SubpathIndex*> visited;
    std::set<const SubpathIndex*> boundary_visited;
    for (auto& [id, cp] : paths_) {
      (void)id;
      if (const std::shared_ptr<PhysicalConfiguration> phys =
              cp.physical.load()) {
        phys->OnDelete(*obj, shared ? &visited : nullptr,
                       shared ? &boundary_visited : nullptr);
      }
    }
    io = probe.Delta();
  }
  delete_ops_->Increment();
  delete_latency_us_->Observe(MicrosSince(start));
  delete_pages_->Observe(static_cast<double>(io.total()));
  Notify(DbOpKind::kDelete, cls, io);
  return Status::OK();
}

Status SimDatabase::RegisterPath(const PathId& id, const Path& path) {
  if (id.empty()) {
    return Status::InvalidArgument("path id must not be empty");
  }
  if (path.length() <= 0) {
    return Status::InvalidArgument("path '" + id + "' is empty");
  }
  MutexLock commit(&commit_mu_);
  ConfiguredPath& cp = paths_[id];
  // The old configuration refers to the old path copy; drop it. Not an
  // epoch publish — registration precedes serving.
  cp.physical.store(nullptr);
  cp.path = path;
  // Registry handles are stable for the database's lifetime, so
  // re-registering an id resolves to the same series.
  cp.ops = &metrics_.CounterAt(
      "pathix_db_ops_total",
      {{"kind", "query"}, {"path", id}, {"naive", "false"}});
  cp.naive_ops = &metrics_.CounterAt(
      "pathix_db_ops_total",
      {{"kind", "query"}, {"path", id}, {"naive", "true"}});
  cp.latency_us = &metrics_.HistogramAt("pathix_db_op_latency_us",
                                        {{"kind", "query"}, {"path", id}});
  cp.pages = &metrics_.HistogramAt("pathix_db_op_pages",
                                   {{"kind", "query"}, {"path", id}});
  return Status::OK();
}

void SimDatabase::PublishEpoch(ConfiguredPath* cp,
                               std::shared_ptr<PhysicalConfiguration> next) {
  cp->physical.store(std::move(next));
  config_epochs_->Increment();
}

Status SimDatabase::ConfigureIndexes(const PathId& id,
                                     IndexConfiguration config) {
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    return Status::FailedPrecondition("path '" + id +
                                      "' is not registered (RegisterPath)");
  }
  MutexLock commit(&commit_mu_);
  // Fresh-build semantics: drop this path's configuration first, so only
  // parts shared with *other* paths' configurations — or still pinned by
  // an in-flight query's snapshot — are adopted.
  it->second.physical.store(nullptr);
  Result<PhysicalConfiguration> phys =
      PhysicalConfiguration::Create(&pager_, schema_, it->second.path,
                                    std::move(config), &registry_, store_);
  if (!phys.ok()) return phys.status();
  PublishEpoch(&it->second,
               std::make_shared<PhysicalConfiguration>(std::move(phys).value()));
  return Status::OK();
}

Status SimDatabase::ReconfigureIndexes(const PathId& id,
                                       IndexConfiguration config) {
  return ReconfigureIndexes(
      std::vector<std::pair<PathId, IndexConfiguration>>{
          {id, std::move(config)}});
}

Status SimDatabase::ReconfigureIndexes(
    const std::vector<std::pair<PathId, IndexConfiguration>>& changes) {
  for (const auto& [id, config] : changes) {
    (void)config;
    if (paths_.count(id) == 0) {
      return Status::FailedPrecondition("path '" + id +
                                        "' is not registered (RegisterPath)");
    }
  }
  // The commit: build every incoming configuration while all outgoing ones
  // are still published — parts surviving anywhere (same path across time,
  // or moving to a different path) keep their physical structures — then
  // publish the new epochs. Exclusive commit_mu_ makes the swap a
  // quiescent point between updates; queries keep running on whichever
  // epoch they pinned, and the registry releases the outgoing parts when
  // the last snapshot drains.
  MutexLock commit(&commit_mu_);
  std::vector<std::shared_ptr<PhysicalConfiguration>> incoming;
  incoming.reserve(changes.size());
  for (const auto& [id, config] : changes) {
    ConfiguredPath& cp = paths_.find(id)->second;
    Result<PhysicalConfiguration> phys = PhysicalConfiguration::Create(
        &pager_, schema_, cp.path, config, &registry_, store_);
    if (!phys.ok()) return phys.status();
    incoming.push_back(
        std::make_shared<PhysicalConfiguration>(std::move(phys).value()));
  }
  for (std::size_t i = 0; i < changes.size(); ++i) {
    PublishEpoch(&paths_.find(changes[i].first)->second,
                 std::move(incoming[i]));
  }
  return Status::OK();
}

void SimDatabase::DropIndexes(const PathId& id) {
  auto it = paths_.find(id);
  if (it == paths_.end()) return;
  MutexLock commit(&commit_mu_);
  it->second.physical.store(nullptr);
}

bool SimDatabase::has_indexes(const PathId& id) const {
  auto it = paths_.find(id);
  return it != paths_.end() && it->second.physical.load() != nullptr;
}

const PhysicalConfiguration& SimDatabase::physical(const PathId& id) const {
  auto it = paths_.find(id);
  PATHIX_DCHECK(it != paths_.end());
  const std::shared_ptr<PhysicalConfiguration> snapshot =
      it->second.physical.load();
  PATHIX_DCHECK(snapshot != nullptr);
  // The epoch keeps the configuration alive after the local reference
  // dies; see the header contract (no concurrent swap).
  return *snapshot;
}

const Path& SimDatabase::path(const PathId& id) const {
  auto it = paths_.find(id);
  PATHIX_DCHECK(it != paths_.end());
  return it->second.path;
}

std::vector<PathId> SimDatabase::path_ids() const {
  std::vector<PathId> ids;
  ids.reserve(paths_.size());
  for (const auto& [id, cp] : paths_) {
    (void)cp;
    ids.push_back(id);
  }
  return ids;
}

std::vector<Oid> SimDatabase::RunIndexedQuery(ConfiguredPath* cp,
                                              const std::string& label,
                                              PhysicalConfiguration* phys,
                                              const Key& ending_value,
                                              ClassId target_class,
                                              bool include_subclasses) {
  std::vector<Oid> oids;
  AccessStats io;
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ScopedAccessProbe probe(&pager_, PageOpKind::kQuery, label);
    oids = phys->Evaluate(ending_value, target_class, include_subclasses);
    io = probe.Delta();
  }
  cp->ops->Increment();
  cp->latency_us->Observe(MicrosSince(start));
  cp->pages->Observe(static_cast<double>(io.total()));
  Notify(DbOpKind::kQuery, target_class, io, label);
  return oids;
}

std::vector<Oid> SimDatabase::RunNaiveQuery(ConfiguredPath* cp,
                                            const std::string& label,
                                            const Key& ending_value,
                                            ClassId target_class,
                                            bool include_subclasses) {
  NaiveEvaluator eval(&store_, &schema_, &cp->path);
  std::vector<Oid> oids;
  AccessStats io;
  const SteadyClock::time_point start = SteadyClock::now();
  {
    ScopedAccessProbe probe(&pager_, PageOpKind::kQuery, label);
    oids = eval.Evaluate(ending_value, target_class, include_subclasses,
                         &pager_);
    io = probe.Delta();
  }
  cp->naive_ops->Increment();
  cp->latency_us->Observe(MicrosSince(start));
  cp->pages->Observe(static_cast<double>(io.total()));
  Notify(DbOpKind::kQuery, target_class, io, label, /*naive=*/true);
  return oids;
}

Result<std::vector<Oid>> SimDatabase::Query(const PathId& id,
                                            const Key& ending_value,
                                            ClassId target_class,
                                            bool include_subclasses) {
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    return Status::FailedPrecondition("path '" + id + "' is not registered");
  }
  // Pin the current epoch: the evaluation runs to completion on this
  // snapshot even if a reconfiguration publishes mid-flight.
  const std::shared_ptr<PhysicalConfiguration> phys =
      it->second.physical.load();
  if (phys == nullptr) {
    return Status::FailedPrecondition("no index configuration installed on '" +
                                      id + "'");
  }
  return RunIndexedQuery(&it->second, it->first, phys.get(), ending_value,
                         target_class, include_subclasses);
}

Result<std::vector<Oid>> SimDatabase::QueryNaive(const PathId& id,
                                                 const Key& ending_value,
                                                 ClassId target_class,
                                                 bool include_subclasses) {
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    return Status::FailedPrecondition("path '" + id + "' is not registered");
  }
  return RunNaiveQuery(&it->second, it->first, ending_value, target_class,
                       include_subclasses);
}

Result<SimDatabase::QueryOutcome> SimDatabase::QueryAny(
    const PathId& id, const Key& ending_value, ClassId target_class,
    bool include_subclasses) {
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    return Status::FailedPrecondition("path '" + id + "' is not registered");
  }
  QueryOutcome outcome;
  // One load decides *and* pins: no has_indexes()-then-Query race.
  if (const std::shared_ptr<PhysicalConfiguration> phys =
          it->second.physical.load()) {
    outcome.oids = RunIndexedQuery(&it->second, it->first, phys.get(),
                                   ending_value, target_class,
                                   include_subclasses);
  } else {
    outcome.naive = true;
    outcome.oids = RunNaiveQuery(&it->second, it->first, ending_value,
                                 target_class, include_subclasses);
  }
  return outcome;
}

obs::MetricsSnapshot SimDatabase::SnapshotMetrics() {
  pager_.ExportMetrics(&metrics_);
  registry_.ExportMetrics(&metrics_);
  return metrics_.Snapshot();
}

Status SimDatabase::ValidateIndexes() const {
  for (const auto& [id, cp] : paths_) {
    (void)id;
    if (const std::shared_ptr<PhysicalConfiguration> phys =
            cp.physical.load()) {
      PATHIX_RETURN_IF_ERROR(phys->Validate());
    }
  }
  return Status::OK();
}

Status SimDatabase::ValidateIndexesDeep() const {
  PATHIX_RETURN_IF_ERROR(ValidateIndexes());
  std::set<const SubpathIndex*> checked;
  for (const auto& [id, cp] : paths_) {
    (void)id;
    const std::shared_ptr<PhysicalConfiguration> phys = cp.physical.load();
    if (phys == nullptr) continue;
    for (SubpathIndex* index : phys->indexes()) {
      if (!checked.insert(index).second) continue;
      if (index->org() == IndexOrg::kNIX) {
        const auto* nix = static_cast<const NIXIndex*>(index);
        PATHIX_RETURN_IF_ERROR(nix->ValidateAgainstStore(store_));
      }
    }
  }
  return Status::OK();
}

}  // namespace pathix
