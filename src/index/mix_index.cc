#include "index/mix_index.h"

#include <algorithm>
#include <span>

namespace pathix {

MIXIndex::MIXIndex(Pager* pager, SubpathIndexContext ctx)
    : SubpathIndex(pager, std::move(ctx)) {
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    trees_[l] = std::make_unique<AttrIndex>(
        pager_, "mix." + std::to_string(l) + "." + ctx_.attr_name(l));
  }
}

AttrIndex* MIXIndex::tree_for(int level) {
  auto it = trees_.find(level);
  return it == trees_.end() ? nullptr : it->second.get();
}

void MIXIndex::BuildImpl(const ObjectStore& store) {
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    const std::string& attr = ctx_.attr_name(l);
    AttrIndex* tree = trees_.at(l).get();
    for (ClassId cls : ctx_.hierarchy(l)) {
      for (const PlacedObject& p : store.PeekAllPlaced(cls)) {
        for (const Value& v : p.obj->values(attr)) {
          tree->AddEntry(Key::FromValue(v), cls, p.obj->oid);
        }
      }
    }
  }
}

std::vector<Oid> MIXIndex::Probe(const std::vector<Key>& keys,
                                 int target_level,
                                 const std::vector<ClassId>& target_classes) {
  PATHIX_DCHECK(StrictlyIncreasing(keys));
  std::span<const Key> current = keys;
  std::vector<Key> next;
  std::vector<Oid> oids;
  for (int l = ctx_.range.end; l >= target_level; --l) {
    const bool last = (l == target_level);
    oids.clear();
    trees_.at(l)->tree().LookupSorted(
        current, WholeRecord{}, [&](const PostingRecord& rec) {
          for (const Posting& p : rec.postings) {
            // One inherited index serves the hierarchy; the target filter
            // picks the requested class(es) out of the grouped record.
            if (last && std::find(target_classes.begin(),
                                  target_classes.end(),
                                  p.cls) == target_classes.end()) {
              continue;
            }
            oids.push_back(p.oid);
          }
        });
    SortUniqueOids(&oids);
    if (last) return oids;
    next.clear();
    next.reserve(oids.size());
    for (Oid oid : oids) next.push_back(Key::FromOid(oid));
    current = next;
  }
  return {};
}

void MIXIndex::OnInsert(const Object& obj, int level) {
  AttrIndex* tree = trees_.at(level).get();
  for (const Value& v : obj.values(ctx_.attr_name(level))) {
    tree->AddEntry(Key::FromValue(v), obj.cls, obj.oid);
  }
}

void MIXIndex::OnDelete(const Object& obj, int level) {
  AttrIndex* tree = trees_.at(level).get();
  for (const Value& v : obj.values(ctx_.attr_name(level))) {
    tree->RemoveEntry(Key::FromValue(v), obj.cls, obj.oid);
  }
  if (level > ctx_.range.start) {
    trees_.at(level - 1)->RemoveKey(Key::FromOid(obj.oid));
  }
}

void MIXIndex::OnBoundaryDelete(Oid oid) {
  trees_.at(ctx_.range.end)->RemoveKey(Key::FromOid(oid));
}

Status MIXIndex::Validate() const {
  for (const auto& [level, tree] : trees_) {
    PATHIX_RETURN_IF_ERROR(ValidatePostings(tree->tree()));
  }
  return Status::OK();
}

std::size_t MIXIndex::total_pages() const {
  std::size_t pages = 0;
  for (const auto& [level, tree] : trees_) pages += tree->tree().total_pages();
  return pages;
}

}  // namespace pathix
