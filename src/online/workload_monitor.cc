#include "online/workload_monitor.h"

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

void WorkloadMonitor::FoldTo(Entry* e, std::uint64_t now) const {
  if (e->as_of == now) return;
  e->count *= std::pow(decay_, static_cast<double>(now - e->as_of));
  e->as_of = now;
}

double WorkloadMonitor::Folded(const Entry& e) const {
  return e.count * std::pow(decay_, static_cast<double>(ops_ - e.as_of));
}

std::uint64_t WorkloadMonitor::Observe(const DbOpEvent& ev) {
  MutexLock lock(&mu_);
  ++ops_;
  if (ev.kind == DbOpKind::kQuery && ev.naive) {
    Entry* pages = &At(naive_pages_, ev.path);
    FoldTo(pages, ops_);
    // Cold-model touches (hits included): the selection signal must price
    // the workload identically at every buffer capacity, or a warm pool
    // would talk the controller out of ever indexing.
    pages->count += static_cast<double>(ev.pages.logical_total());
  }
  Entry* entry = nullptr;
  switch (ev.kind) {
    case DbOpKind::kQuery:
      entry = &At(queries_, ev.path)[ev.cls];
      break;
    case DbOpKind::kInsert:
      entry = &inserts_[ev.cls];
      break;
    case DbOpKind::kDelete:
      entry = &deletes_[ev.cls];
      break;
  }
  FoldTo(entry, ops_);
  entry->count += 1;
  return ops_;
}

double WorkloadMonitor::DecayedTotal() const {
  ReaderMutexLock lock(&mu_);
  return DecayedTotalLocked();
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

LoadDistribution WorkloadMonitor::EstimatedLoad() const {
  ReaderMutexLock lock(&mu_);
  LoadDistribution load;
  const double total = DecayedTotalLocked();
  if (total <= 0) return load;
  std::unordered_map<ClassId, OpLoad> merged;
  for (const auto& [path, by_class] : queries_) {
    (void)path;
    for (const auto& [cls, e] : by_class) merged[cls].query += Folded(e);
  }
  for (const auto& [cls, e] : inserts_) merged[cls].insert += Folded(e);
  for (const auto& [cls, e] : deletes_) merged[cls].del += Folded(e);
  for (const auto& [cls, l] : merged) {
    load.Set(cls, l.query / total, l.insert / total, l.del / total);
  }
  return load;
}

LoadDistribution WorkloadMonitor::EstimatedLoadFor(
    const PathId& path, const std::set<ClassId>& scope) const {
  ReaderMutexLock lock(&mu_);
  LoadDistribution load;
  const double total = DecayedTotalLocked();
  if (total <= 0) return load;
  std::unordered_map<ClassId, OpLoad> merged;
  const auto it = queries_.find(path);
  if (it != queries_.end()) {
    for (const auto& [cls, e] : it->second) merged[cls].query += Folded(e);
  }
  for (const auto& [cls, e] : inserts_) {
    if (scope.count(cls) > 0) merged[cls].insert += Folded(e);
  }
  for (const auto& [cls, e] : deletes_) {
    if (scope.count(cls) > 0) merged[cls].del += Folded(e);
  }
  for (const auto& [cls, l] : merged) {
    load.Set(cls, l.query / total, l.insert / total, l.del / total);
  }
  return load;
}

double WorkloadMonitor::MeasuredNaiveQueryPagesPerOp(const PathId& path) const {
  ReaderMutexLock lock(&mu_);
  const double total = DecayedTotalLocked();
  if (total <= 0) return 0;
  const auto it = naive_pages_.find(path);
  return it == naive_pages_.end() ? 0 : Folded(it->second) / total;
}

double WorkloadMonitor::MeasuredNaiveQueryPagesPerOp() const {
  ReaderMutexLock lock(&mu_);
  const double total = DecayedTotalLocked();
  if (total <= 0) return 0;
  double pages = 0;
  for (const auto& [path, e] : naive_pages_) {
    (void)path;
    pages += Folded(e);
  }
  return pages / total;
}

void WorkloadMonitor::ExportMetrics(obs::MetricsRegistry* registry) const {
  double total = 0;
  std::uint64_t ops = 0;
  std::map<PathId, double> query_weight;
  std::map<PathId, double> naive_pages;
  {
    ReaderMutexLock lock(&mu_);
    total = DecayedTotalLocked();
    ops = ops_;
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
  ops_ = 0;
  queries_.clear();
  inserts_.clear();
  deletes_.clear();
  naive_pages_.clear();
}

}  // namespace pathix
