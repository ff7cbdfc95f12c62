#include "exec/naive_evaluator.h"

#include <span>

#include "index/path_walk.h"

namespace pathix {

std::vector<Oid> NaiveEvaluator::Evaluate(const Key& ending_value,
                                          ClassId target_class,
                                          bool include_subclasses,
                                          Pager* pager) {
  int target_level = 0;
  for (int l = 1; l <= path_->length(); ++l) {
    if (schema_->IsSameOrSubclassOf(target_class, path_->class_at(l))) {
      target_level = l;
      break;
    }
  }
  PATHIX_DCHECK(target_level > 0);

  PathWalk walk(*store_, *schema_, *path_, target_level, path_->length(),
                std::span<const Key>(&ending_value, 1),
                /*skip_dangling=*/false, pager);
  std::vector<ClassId> targets =
      include_subclasses ? schema_->HierarchyOf(target_class)
                         : std::vector<ClassId>{target_class};
  std::vector<Oid> out;
  for (ClassId cls : targets) {
    const std::vector<PlacedObject> objects = store_->PeekAllPlaced(cls);
    // Scanning the class segment touches every page once.
    for (const PlacedObject& p : objects) walk.Charge(p.page);
    for (const PlacedObject& p : objects) {
      if (walk.Reaches(p)) out.push_back(p.obj->oid);
    }
  }
  return out;
}

}  // namespace pathix
