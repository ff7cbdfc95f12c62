#include "online/workload_monitor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace pathix {

namespace {

/// \p map's value for \p key, default-constructed on first use (the
/// heterogeneous operator[] std::map lacks).
template <typename Map>
typename Map::mapped_type& At(Map& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(std::string(key), typename Map::mapped_type{}).first;
  }
  return it->second;
}

}  // namespace

WorkloadMonitor::WorkloadMonitor(double half_life_ops)
    : decay_(half_life_ops > 0 ? std::exp2(-1.0 / half_life_ops) : 1.0) {}

double WorkloadMonitor::Folded(const Entry& e) const {
  return e.count * std::pow(decay_, static_cast<double>(now_ - e.as_of));
}

void WorkloadMonitor::Add(Entry* e, std::uint64_t index,
                          double weight) const {
  if (index < e->as_of) {
    e->count +=
        weight * std::pow(decay_, static_cast<double>(e->as_of - index));
    return;
  }
  if (e->as_of != index) {
    e->count *= std::pow(decay_, static_cast<double>(index - e->as_of));
    e->as_of = index;
  }
  e->count += weight;
}

std::uint64_t WorkloadMonitor::Observe(const DbOpEvent& ev) {
  const std::uint64_t index =
      ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  const Pending record{index, ev.path, ev.pages.logical_total(), ev.cls,
                       ev.kind, ev.kind == DbOpKind::kQuery && ev.naive};
  bool full = false;
  batches_.Local([&](std::vector<Pending>& batch) {
    batch.push_back(record);
    full = batch.size() >= kMonitorBatchCap;
  });
  if (full) {
    MutexLock lock(&mu_);
    Drain();
  }
  return index;
}

void WorkloadMonitor::Drain() const {
  std::vector<Pending>& drained = drained_;
  batches_.ForEach([&drained](std::vector<Pending>& batch) {
    drained.insert(drained.end(), batch.begin(), batch.end());
    batch.clear();
  });
  std::sort(drained.begin(), drained.end(),
            [](const Pending& a, const Pending& b) {
              return a.index < b.index;
            });
  for (const Pending& p : drained) {
    if (p.naive) {
      // Cold-model touches (hits included): the selection signal must price
      // the workload identically at every buffer capacity, or a warm pool
      // would talk the controller out of ever indexing.
      Add(&At(naive_pages_, p.path), p.index, static_cast<double>(p.pages));
    }
    switch (p.kind) {
      case DbOpKind::kQuery:
        Add(&At(queries_, p.path)[p.cls], p.index, 1);
        break;
      case DbOpKind::kInsert:
        Add(&inserts_[p.cls], p.index, 1);
        break;
      case DbOpKind::kDelete:
        Add(&deletes_[p.cls], p.index, 1);
        break;
    }
  }
  drained.clear();
  // Read after the folds: every index just folded was drawn before its
  // record was appended, so none exceeds now_.
  now_ = ops_.load(std::memory_order_relaxed);
}

double WorkloadMonitor::DecayedTotalLocked() const {
  double total = 0;
  for (const auto& [path, by_class] : queries_) {
    (void)path;
    for (const auto& [cls, e] : by_class) {
      (void)cls;
      total += Folded(e);
    }
  }
  for (const auto& [cls, e] : inserts_) {
    (void)cls;
    total += Folded(e);
  }
  for (const auto& [cls, e] : deletes_) {
    (void)cls;
    total += Folded(e);
  }
  return total;
}

MonitorSnapshot WorkloadMonitor::Snapshot(
    const std::vector<PathId>& paths,
    const std::vector<std::set<ClassId>>& scopes) const {
  PATHIX_DCHECK(scopes.size() == paths.size());
  MutexLock lock(&mu_);
  Drain();
  MonitorSnapshot snap;
  snap.op_index = now_;
  const double total = DecayedTotalLocked();
  snap.decayed_total = total;
  snap.loads.resize(paths.size());
  snap.naive_pages_per_op.resize(paths.size());
  if (total <= 0) return snap;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::unordered_map<ClassId, OpLoad> merged;
    const auto queries = queries_.find(paths[i]);
    if (queries != queries_.end()) {
      for (const auto& [cls, e] : queries->second) {
        merged[cls].query += Folded(e);
      }
    }
    for (const auto& [cls, e] : inserts_) {
      if (scopes[i].count(cls) > 0) merged[cls].insert += Folded(e);
    }
    for (const auto& [cls, e] : deletes_) {
      if (scopes[i].count(cls) > 0) merged[cls].del += Folded(e);
    }
    for (const auto& [cls, l] : merged) {
      snap.loads[i].Set(cls, l.query / total, l.insert / total,
                        l.del / total);
    }
    const auto naive = naive_pages_.find(paths[i]);
    if (naive != naive_pages_.end()) {
      snap.naive_pages_per_op[i] = Folded(naive->second) / total;
    }
  }
  return snap;
}

void WorkloadMonitor::ExportMetrics(obs::MetricsRegistry* registry) const {
  double total = 0;
  std::uint64_t ops = 0;
  std::map<PathId, double> query_weight;
  std::map<PathId, double> naive_pages;
  {
    MutexLock lock(&mu_);
    Drain();
    total = DecayedTotalLocked();
    ops = now_;
    for (const auto& [path, by_class] : queries_) {
      double weight = 0;
      for (const auto& [cls, e] : by_class) {
        (void)cls;
        weight += Folded(e);
      }
      query_weight[path] = total > 0 ? weight / total : 0;
    }
    for (const auto& [path, e] : naive_pages_) {
      naive_pages[path] = total > 0 ? Folded(e) / total : 0;
    }
  }
  registry->GaugeAt("pathix_monitor_decayed_total").Set(total);
  registry->CounterAt("pathix_monitor_ops_observed_total")
      .MirrorTo(static_cast<double>(ops));
  for (const auto& [path, weight] : query_weight) {
    registry->GaugeAt("pathix_monitor_query_weight", {{"path", path}})
        .Set(weight);
  }
  for (const auto& [path, pages] : naive_pages) {
    registry->GaugeAt("pathix_monitor_naive_pages_per_op", {{"path", path}})
        .Set(pages);
  }
}

void WorkloadMonitor::Reset() {
  MutexLock lock(&mu_);
  batches_.ForEach([](std::vector<Pending>& batch) { batch.clear(); });
  ops_.store(0, std::memory_order_relaxed);
  now_ = 0;
  queries_.clear();
  inserts_.clear();
  deletes_.clear();
  naive_pages_.clear();
}

}  // namespace pathix
