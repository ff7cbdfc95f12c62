#include "index/path_walk.h"

#include <algorithm>
#include <iterator>
#include <memory>

namespace pathix {

namespace {

/// Fibonacci hashing: the top bits of oid * 2^64/phi spread dense oids.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

}  // namespace

PathWalk::PathWalk(const ObjectStore& store, const Schema& schema,
                   const Path& path, int target_level, int end_level,
                   std::span<const Key> keys, bool skip_dangling,
                   Pager* pager)
    : store_(store),
      path_(path),
      target_level_(target_level),
      end_level_(end_level),
      keys_(keys),
      skip_dangling_(skip_dangling),
      pager_(pager),
      charged_(pager->allocated_pages() / 64 + 1) {
  PATHIX_DCHECK(std::is_sorted(keys.begin(), keys.end()));
  for (int l = target_level + 1; l <= end_level; ++l) {
    for (ClassId cls : schema.HierarchyOf(path.class_at(l))) {
      std::vector<PlacedObject> objects = store.PeekAllPlaced(cls);
      listed_.insert(listed_.end(), std::make_move_iterator(objects.begin()),
                     std::make_move_iterator(objects.end()));
    }
  }
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * listed_.size()) ++bits;
  slots_.resize(std::size_t{1} << bits);
  shift_ = 64 - bits;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < listed_.size(); ++i) {
    const Oid oid = listed_[i].obj->oid;
    std::size_t at = (oid * kFibonacci) >> shift_;
    while (slots_[at].oid != kInvalidOid) at = (at + 1) & mask;
    slots_[at] = Slot{oid, static_cast<std::uint32_t>(i), Memo::kUnvisited};
  }
}

void PathWalk::Charge(PageId page) {
  if (page == kInvalidPage) return;
  const std::size_t word = page / 64;
  if (word >= charged_.size()) charged_.resize(word + 1);
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  if ((charged_[word] & bit) != 0) return;
  charged_[word] |= bit;
  pager_->NoteRead(page);
}

bool PathWalk::Reaches(const PlacedObject& target) {
  const Oid oid = target.obj->oid;
  // Reached through a reference before its own walk: answered then.
  if (!unlisted_.empty()) {
    const auto it = unlisted_.find(oid);
    if (it != unlisted_.end()) return it->second;
  }
  Charge(target.page);
  const bool hit = Test(*target.obj, target_level_);
  walked_.emplace_back(oid, hit);
  return hit;
}

PathWalk::Slot* PathWalk::Find(Oid oid) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = (oid * kFibonacci) >> shift_;; at = (at + 1) & mask) {
    Slot& slot = slots_[at];
    if (slot.oid == kInvalidOid) return nullptr;
    if (slot.oid == oid) return &slot;
  }
}

bool PathWalk::Visit(Oid oid, int level) {
  Slot* slot = Find(oid);
  if (slot == nullptr) return VisitUnlisted(oid, level);
  if (slot->memo != Memo::kUnvisited) return slot->memo == Memo::kHit;
  // A miss until the descent says otherwise: a reference cycle (possible
  // only against the attributes' domains) reaches nothing through its back
  // edge. The slot stays put: the table never grows.
  slot->memo = Memo::kMiss;
  const PlacedObject& placed = listed_[slot->listed];
  Charge(placed.page);
  if (Test(*placed.obj, level)) slot->memo = Memo::kHit;
  return slot->memo == Memo::kHit;
}

bool PathWalk::VisitUnlisted(Oid oid, int level) {
  if (const auto it = unlisted_.find(oid); it != unlisted_.end()) {
    return it->second;
  }
  Charge(store_.PageOf(oid));
  // Owning reference: a concurrent delete may unmap the oid mid-walk, but
  // the object stays alive for the duration of this visit. A dangling
  // reference has no page and reaches nothing; it is not memoized.
  const std::shared_ptr<const Object> obj = store_.PeekRef(oid);
  if (obj == nullptr) return false;
  // A live object the lists do not hold may be a target walked already (a
  // reference against its attribute's domain): its walk's answer stands,
  // as for any oid visited twice.
  for (; folded_ < walked_.size(); ++folded_) {
    unlisted_.insert(walked_[folded_]);
  }
  const auto [it, fresh] = unlisted_.try_emplace(oid, false);
  if (!fresh) return it->second;
  // The map's nodes stay put as the descent inserts more.
  bool& memo = it->second;
  memo = Test(*obj, level);
  return memo;
}

bool PathWalk::Test(const Object& obj, int level) {
  const std::vector<Value>& values =
      obj.values(path_.attribute_at(level).name);
  if (level == end_level_) {
    return std::any_of(values.begin(), values.end(),
                       [this](const Value& v) { return Matches(v); });
  }
  for (const Value& v : values) {
    if (v.kind() == Value::Kind::kRef && Visit(v.as_ref(), level + 1)) {
      return true;
    }
  }
  return false;
}

bool PathWalk::Matches(const Value& v) const {
  if (!std::binary_search(keys_.begin(), keys_.end(), Key::FromValue(v))) {
    return false;
  }
  // A dangling reference cannot match a live boundary key.
  return !skip_dangling_ || v.kind() != Value::Kind::kRef ||
         store_.Contains(v.as_ref());
}

}  // namespace pathix
