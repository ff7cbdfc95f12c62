#include "index/mx_index.h"

#include <algorithm>
#include <span>

namespace pathix {

MXIndex::MXIndex(Pager* pager, SubpathIndexContext ctx)
    : SubpathIndex(pager, std::move(ctx)) {
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    for (ClassId cls : ctx_.hierarchy(l)) {
      trees_[{l, cls}] = std::make_unique<AttrIndex>(
          pager_, "mx." + std::to_string(l) + "." +
                      ctx_.schema->GetClass(cls).name());
    }
  }
}

AttrIndex* MXIndex::tree_for(int level, ClassId cls) {
  auto it = trees_.find({level, cls});
  return it == trees_.end() ? nullptr : it->second.get();
}

void MXIndex::BuildImpl(const ObjectStore& store) {
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    const std::string& attr = ctx_.attr_name(l);
    for (ClassId cls : ctx_.hierarchy(l)) {
      AttrIndex* tree = trees_.at({l, cls}).get();
      for (const auto& obj : store.PeekAllRefs(cls)) {
        for (const Value& v : obj->values(attr)) {
          tree->AddEntry(Key::FromValue(v), cls, obj->oid);
        }
      }
    }
  }
}

std::vector<Oid> MXIndex::Probe(const std::vector<Key>& keys,
                                int target_level,
                                const std::vector<ClassId>& target_classes) {
  PATHIX_DCHECK(StrictlyIncreasing(keys));
  std::span<const Key> current = keys;
  std::vector<Key> next;
  std::vector<Oid> oids;
  for (int l = ctx_.range.end; l >= target_level; --l) {
    const bool last = (l == target_level);
    oids.clear();
    for (ClassId cls : ctx_.hierarchy(l)) {
      // At the target level only the requested classes' indexes are probed
      // (CRMX evaluates a single class's index at level l; the hierarchy
      // variant passes the whole hierarchy in target_classes).
      if (last && std::find(target_classes.begin(), target_classes.end(),
                            cls) == target_classes.end()) {
        continue;
      }
      // One sorted walk per class index: Yao's once-per-batch page charge.
      trees_.at({l, cls})->tree().LookupSorted(
          current, WholeRecord{}, [&oids](const PostingRecord& rec) {
            for (const Posting& p : rec.postings) oids.push_back(p.oid);
          });
    }
    SortUniqueOids(&oids);
    if (last) return oids;
    next.clear();
    next.reserve(oids.size());
    for (Oid oid : oids) next.push_back(Key::FromOid(oid));
    current = next;
  }
  return {};
}

void MXIndex::OnInsert(const Object& obj, int level) {
  AttrIndex* tree = trees_.at({level, obj.cls}).get();
  for (const Value& v : obj.values(ctx_.attr_name(level))) {
    tree->AddEntry(Key::FromValue(v), obj.cls, obj.oid);
  }
}

void MXIndex::OnDelete(const Object& obj, int level) {
  AttrIndex* tree = trees_.at({level, obj.cls}).get();
  for (const Value& v : obj.values(ctx_.attr_name(level))) {
    tree->RemoveEntry(Key::FromValue(v), obj.cls, obj.oid);
  }
  // The deleted oid is a key of the previous level's indexes (all
  // subclasses): remove its record from each (Section 3.1, CMMX).
  if (level > ctx_.range.start) {
    for (ClassId cls : ctx_.hierarchy(level - 1)) {
      trees_.at({level - 1, cls})->RemoveKey(Key::FromOid(obj.oid));
    }
  }
}

void MXIndex::OnBoundaryDelete(Oid oid) {
  for (ClassId cls : ctx_.hierarchy(ctx_.range.end)) {
    trees_.at({ctx_.range.end, cls})->RemoveKey(Key::FromOid(oid));
  }
}

Status MXIndex::Validate() const {
  for (const auto& [key, tree] : trees_) {
    PATHIX_RETURN_IF_ERROR(ValidatePostings(tree->tree()));
  }
  return Status::OK();
}

std::size_t MXIndex::total_pages() const {
  std::size_t pages = 0;
  for (const auto& [key, tree] : trees_) pages += tree->tree().total_pages();
  return pages;
}

}  // namespace pathix
