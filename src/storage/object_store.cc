#include "storage/object_store.h"

#include <algorithm>
#include <utility>

namespace pathix {

ObjectStore::Shard& ObjectStore::ShardFor(ClassId cls) {
  {
    ReaderMutexLock lock(&shards_mu_);
    auto it = shards_.find(cls);
    if (it != shards_.end()) return *it->second;
  }
  MutexLock lock(&shards_mu_);
  std::unique_ptr<Shard>& slot = shards_[cls];
  if (slot == nullptr) slot = std::make_unique<Shard>();
  return *slot;
}

ObjectStore::Shard* ObjectStore::FindShard(ClassId cls) const {
  ReaderMutexLock lock(&shards_mu_);
  auto it = shards_.find(cls);
  return it == shards_.end() ? nullptr : it->second.get();
}

bool ObjectStore::FindLocation(Oid oid, Location* out) const {
  ReaderMutexLock lock(&loc_mu_);
  auto it = locations_.find(oid);
  if (it == locations_.end()) return false;
  *out = it->second;
  return true;
}

Oid ObjectStore::Insert(Object obj) {
  return InsertAndGet(std::move(obj))->oid;
}

std::shared_ptr<const Object> ObjectStore::InsertAndGet(Object obj) {
  obj.oid = next_oid_.fetch_add(1);
  const std::size_t need = obj.bytes();
  const ClassId cls = obj.cls;
  Shard& shard = ShardFor(cls);
  auto stored = std::make_shared<const Object>(std::move(obj));

  Location loc{cls, 0, kInvalidPage};
  {
    MutexLock lock(&shard.mu);
    if (shard.pages.empty() ||
        shard.pages.back().used_bytes + need > pager_->page_size()) {
      SegmentPage page;
      page.page = pager_->Allocate();
      shard.pages.push_back(page);
    }
    SegmentPage& page = shard.pages.back();
    page.used_bytes += need;
    page.oids.push_back(stored->oid);
    // Pin the slot page while the object lands on it (shard mutex > pager
    // and pool latches, both leaves — see common/mutex.h).
    PageGuard slot_pin = pager_->PinWrite(page.page);
    loc.page_index = shard.pages.size() - 1;
    loc.page = page.page;
    shard.objects.emplace(stored->oid, stored);
  }
  {
    MutexLock lock(&loc_mu_);
    locations_[stored->oid] = loc;
  }
  return stored;
}

Status ObjectStore::Delete(Oid oid) {
  if (Take(oid) == nullptr) {
    return Status::NotFound("object " + std::to_string(oid));
  }
  return Status::OK();
}

std::shared_ptr<const Object> ObjectStore::Take(Oid oid) {
  Location loc;
  if (!FindLocation(oid, &loc)) return nullptr;
  Shard* shard = FindShard(loc.cls);
  if (shard == nullptr) return nullptr;

  std::shared_ptr<const Object> claimed;
  {
    MutexLock lock(&shard->mu);
    auto it = shard->objects.find(oid);
    // Absent: a racing Take claimed it first — that claimant owns the
    // deletion's side effects and its page accounting.
    if (it == shard->objects.end()) return nullptr;
    claimed = std::move(it->second);
    shard->objects.erase(it);
    SegmentPage& page = shard->pages[loc.page_index];
    PageGuard slot_pin = pager_->PinRead(page.page);
    page.used_bytes -= std::min(page.used_bytes, claimed->bytes());
    page.oids.erase(std::remove(page.oids.begin(), page.oids.end(), oid),
                    page.oids.end());
    pager_->NoteWrite(page.page);
  }
  {
    MutexLock lock(&loc_mu_);
    locations_.erase(oid);
  }
  return claimed;
}

const Object* ObjectStore::Get(Oid oid) {
  Location loc;
  if (!FindLocation(oid, &loc)) return nullptr;
  Shard* shard = FindShard(loc.cls);
  if (shard == nullptr) return nullptr;
  ReaderMutexLock lock(&shard->mu);
  auto it = shard->objects.find(oid);
  if (it == shard->objects.end()) return nullptr;
  PageGuard slot_pin = pager_->PinRead(loc.page);
  return it->second.get();
}

std::shared_ptr<const Object> ObjectStore::GetRef(Oid oid) {
  Location loc;
  if (!FindLocation(oid, &loc)) return nullptr;
  Shard* shard = FindShard(loc.cls);
  if (shard == nullptr) return nullptr;
  ReaderMutexLock lock(&shard->mu);
  auto it = shard->objects.find(oid);
  if (it == shard->objects.end()) return nullptr;
  PageGuard slot_pin = pager_->PinRead(loc.page);
  return it->second;
}

const Object* ObjectStore::Peek(Oid oid) const {
  Location loc;
  if (!FindLocation(oid, &loc)) return nullptr;
  Shard* shard = FindShard(loc.cls);
  if (shard == nullptr) return nullptr;
  ReaderMutexLock lock(&shard->mu);
  auto it = shard->objects.find(oid);
  return it == shard->objects.end() ? nullptr : it->second.get();
}

std::shared_ptr<const Object> ObjectStore::PeekRef(Oid oid) const {
  Location loc;
  if (!FindLocation(oid, &loc)) return nullptr;
  Shard* shard = FindShard(loc.cls);
  if (shard == nullptr) return nullptr;
  ReaderMutexLock lock(&shard->mu);
  auto it = shard->objects.find(oid);
  return it == shard->objects.end() ? nullptr : it->second;
}

std::vector<Oid> ObjectStore::Scan(ClassId cls) {
  std::vector<Oid> out;
  Shard* shard = FindShard(cls);
  if (shard == nullptr) return out;
  ReaderMutexLock lock(&shard->mu);
  for (const SegmentPage& page : shard->pages) {
    pager_->NoteRead(page.page);
    out.insert(out.end(), page.oids.begin(), page.oids.end());
  }
  return out;
}

std::vector<Oid> ObjectStore::PeekAll(ClassId cls) const {
  std::vector<Oid> out;
  Shard* shard = FindShard(cls);
  if (shard == nullptr) return out;
  ReaderMutexLock lock(&shard->mu);
  for (const SegmentPage& page : shard->pages) {
    out.insert(out.end(), page.oids.begin(), page.oids.end());
  }
  return out;
}

std::vector<std::shared_ptr<const Object>> ObjectStore::PeekAllRefs(
    ClassId cls) const {
  std::vector<std::shared_ptr<const Object>> out;
  Shard* shard = FindShard(cls);
  if (shard == nullptr) return out;
  ReaderMutexLock lock(&shard->mu);
  out.reserve(shard->objects.size());
  for (const SegmentPage& page : shard->pages) {
    for (Oid oid : page.oids) {
      // A page lists exactly the shard's objects: both change together
      // under the shard mutex.
      const auto it = shard->objects.find(oid);
      PATHIX_DCHECK(it != shard->objects.end());
      out.push_back(it->second);
    }
  }
  return out;
}

bool ObjectStore::Contains(Oid oid) const {
  ReaderMutexLock lock(&loc_mu_);
  return locations_.count(oid) > 0;
}

std::size_t ObjectStore::LiveCount(ClassId cls) const {
  Shard* shard = FindShard(cls);
  if (shard == nullptr) return 0;
  ReaderMutexLock lock(&shard->mu);
  std::size_t count = 0;
  for (const SegmentPage& page : shard->pages) count += page.oids.size();
  return count;
}

std::size_t ObjectStore::SegmentPages(ClassId cls) const {
  Shard* shard = FindShard(cls);
  if (shard == nullptr) return 0;
  ReaderMutexLock lock(&shard->mu);
  return shard->pages.size();
}

PageId ObjectStore::PageOf(Oid oid) const {
  Location loc;
  if (!FindLocation(oid, &loc)) return kInvalidPage;
  return loc.page;
}

}  // namespace pathix
