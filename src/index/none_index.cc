#include "index/none_index.h"

#include <algorithm>

#include "index/path_walk.h"

namespace pathix {

std::vector<Oid> NoneIndex::Probe(const std::vector<Key>& keys,
                                  int target_level,
                                  const std::vector<ClassId>& target_classes) {
  PATHIX_DCHECK(store_ != nullptr && "Build() must run before Probe()");
  PATHIX_DCHECK(StrictlyIncreasing(keys));
  PathWalk walk(*store_, *ctx_.schema, *ctx_.path, target_level,
                ctx_.range.end, keys, /*skip_dangling=*/true, pager_);
  std::vector<Oid> out;
  for (ClassId cls : target_classes) {
    for (const PlacedObject& p : store_->PeekAllPlaced(cls)) {
      // The scan itself touches every segment page once.
      walk.Charge(p.page);
      if (walk.Reaches(p)) out.push_back(p.obj->oid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pathix
