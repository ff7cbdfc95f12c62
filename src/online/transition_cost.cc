#include "online/transition_cost.h"

#include <map>
#include <memory>
#include <set>

#include "common/math.h"
#include "common/mutex.h"
#include "core/structural_key.h"
#include "costmodel/org_model.h"

namespace pathix {

TransitionCost EstimateJointTransitionCost(
    const std::vector<PathTransition>& paths, const ObjectStore& store) {
  TransitionCost cost;

  // Structural identities of every part kept by a target configuration, and
  // of every part currently installed (on any path).
  std::set<StructuralKey> target_keys;
  std::set<StructuralKey> current_keys;
  for (const PathTransition& pt : paths) {
    const Path& path = pt.ctx->path();
    if (pt.target != nullptr) {
      for (const IndexedSubpath& part : pt.target->parts()) {
        target_keys.insert(StructuralKey::ForSubpath(
            path, part.subpath.start, part.subpath.end, part.org));
      }
    }
    if (pt.current != nullptr) {
      for (const IndexedSubpath& part : pt.current->config().parts()) {
        current_keys.insert(StructuralKey::ForSubpath(
            path, part.subpath.start, part.subpath.end, part.org));
      }
    }
  }

  // Dropped: installed parts no target keeps — their actual pages, touched
  // once to free them. Dedup by physical structure (shared parts are one
  // structure, freed once).
  std::set<const SubpathIndex*> dropped;
  for (const PathTransition& pt : paths) {
    if (pt.current == nullptr) continue;
    const Path& path = pt.ctx->path();
    const std::vector<IndexedSubpath>& parts = pt.current->config().parts();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const StructuralKey key = StructuralKey::ForSubpath(
          path, parts[i].subpath.start, parts[i].subpath.end, parts[i].org);
      if (target_keys.count(key) > 0) continue;
      const std::shared_ptr<PhysicalPart>& part = pt.current->part(i);
      const SubpathIndex* index = part->index.get();
      if (!dropped.insert(index).second) continue;
      // Size the structure under its reader latch: the part is live, and
      // concurrent maintenance mutates its trees under the writer side.
      ReaderMutexLock latch(&part->latch);
      cost.drop_pages += static_cast<double>(index->total_pages());
    }
  }

  // Built: target parts no current configuration holds — the store scan of
  // their scope plus the analytic size of their structures, charged once
  // per distinct structure however many paths use it.
  std::set<StructuralKey> built;
  for (const PathTransition& pt : paths) {
    if (pt.target == nullptr) continue;
    const Path& path = pt.ctx->path();
    for (const IndexedSubpath& part : pt.target->parts()) {
      StructuralKey key = StructuralKey::ForSubpath(
          path, part.subpath.start, part.subpath.end, part.org);
      if (current_keys.count(key) > 0) continue;
      // "No index" has no build: NoneIndex evaluates navigationally against
      // the store and materializes nothing (none_index.h).
      if (part.org == IndexOrg::kNone) continue;
      if (!built.insert(std::move(key)).second) continue;
      // Building reads every segment page of every class in the part's
      // scope once (the physical builders iterate the store class by
      // class) ...
      for (int l = part.subpath.start; l <= part.subpath.end; ++l) {
        for (const LevelClassInfo& c : pt.ctx->level(l)) {
          cost.scan_pages += static_cast<double>(store.SegmentPages(c.cls));
        }
      }
      // ... and writes the index structures out, sized by the same analytic
      // estimate the advisor reports as the part's storage footprint.
      const double bytes = MakeOrgCostModel(part.org, *pt.ctx,
                                            part.subpath.start,
                                            part.subpath.end)
                               ->StorageBytes();
      cost.write_pages += CeilDiv(bytes, pt.ctx->params().page_size);
    }
  }
  return cost;
}

}  // namespace pathix
