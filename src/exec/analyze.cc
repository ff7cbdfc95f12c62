#include "exec/analyze.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "index/key.h"

namespace pathix {

namespace {

/// One class's statistics w.r.t. one path attribute, from the live store.
ClassStats CollectClassStats(const ObjectStore& store, ClassId cls,
                             const std::string& attr) {
  // Owning references, listed under one shard lock: ANALYZE runs on the
  // controller's thread while serving workers delete concurrently.
  const std::vector<std::shared_ptr<const Object>> objects =
      store.PeekAllRefs(cls);
  ClassStats stats;
  stats.n = static_cast<double>(objects.size());
  std::vector<Key> values;
  double total_bytes = 0;
  for (const std::shared_ptr<const Object>& obj : objects) {
    total_bytes += static_cast<double>(obj->bytes());
    for (const Value& v : obj->values(attr)) {
      // Dangling references do not select anything; skip them like the
      // evaluators do.
      if (v.kind() == Value::Kind::kRef && !store.Contains(v.as_ref())) {
        continue;
      }
      values.push_back(Key::FromValue(v));
    }
  }
  const double total_values = static_cast<double>(values.size());
  // An attribute's values share one kind (the schema types it), so two
  // values are the same exactly when their keys are.
  std::sort(values.begin(), values.end());
  const auto distinct = std::unique(values.begin(), values.end());
  stats.d = std::max<double>(
      1.0, static_cast<double>(distinct - values.begin()));
  stats.nin = stats.n > 0 ? std::max(1.0, total_values / stats.n) : 1.0;
  stats.obj_len = stats.n > 0 ? total_bytes / stats.n : 64.0;
  return stats;
}

}  // namespace

Catalog CollectStatistics(const ObjectStore& store, const Schema& schema,
                          const Path& path, const PhysicalParams& params) {
  Catalog catalog(params);
  for (int l = 1; l <= path.length(); ++l) {
    const std::string& attr = path.attribute_at(l).name;
    for (ClassId cls : schema.HierarchyOf(path.class_at(l))) {
      const ClassStats stats = CollectClassStats(store, cls, attr);
      // Both keys: attribute-keyed for the cost model (d/nin depend on the
      // attribute), class-keyed as the fallback for attr-agnostic readers.
      catalog.SetClassStats(cls, attr, stats);
      catalog.SetClassStats(cls, stats);
    }
  }
  return catalog;
}

int RefreshStatistics(const ObjectStore& store, const Schema& schema,
                      const Path& path, const std::set<ClassId>& classes,
                      Catalog* catalog,
                      std::set<std::pair<ClassId, std::string>>* collected) {
  int collections = 0;
  for (int l = 1; l <= path.length(); ++l) {
    const std::string& attr = path.attribute_at(l).name;
    for (ClassId cls : schema.HierarchyOf(path.class_at(l))) {
      if (classes.count(cls) == 0) continue;
      if (collected != nullptr && !collected->emplace(cls, attr).second) {
        continue;  // another overlapping path already scanned this pair
      }
      const ClassStats stats = CollectClassStats(store, cls, attr);
      catalog->SetClassStats(cls, attr, stats);
      catalog->SetClassStats(cls, stats);
      ++collections;
    }
  }
  return collections;
}

}  // namespace pathix
