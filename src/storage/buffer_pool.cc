#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "common/status.h"

namespace pathix {
namespace {

// Frame word layout (buffer_pool.h): page id above bit 32, then the frozen,
// dirty and reference bits, the resize generation, and the pin count.
constexpr std::uint64_t kPinMask = (std::uint64_t{1} << 21) - 1;
constexpr int kGenerationShift = 21;
constexpr std::uint64_t kGenerationMask = std::uint64_t{0xFF}
                                          << kGenerationShift;
constexpr std::uint64_t kRefBit = std::uint64_t{1} << 29;
constexpr std::uint64_t kDirtyBit = std::uint64_t{1} << 30;
constexpr std::uint64_t kFrozenBit = std::uint64_t{1} << 31;
constexpr std::uint64_t kFreeWord = std::uint64_t{kInvalidPage} << 32;
/// A hint slot naming no frame.
constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};

PageId PageOf(std::uint64_t word) { return static_cast<PageId>(word >> 32); }
std::uint64_t Pins(std::uint64_t word) { return word & kPinMask; }

std::uint64_t WithGeneration(std::uint64_t word, std::uint64_t generation) {
  return (word & ~kGenerationMask) |
         ((generation << kGenerationShift) & kGenerationMask);
}

std::uint64_t MakeWord(PageId page, bool dirty, bool pin,
                       std::uint64_t generation) {
  return WithGeneration((std::uint64_t{page} << 32) | kRefBit |
                            (dirty ? kDirtyBit : 0) | (pin ? 1 : 0),
                        generation);
}

/// Records a hit on \p word if it holds \p page unfrozen: sets the
/// reference bit (and the dirty bit for a write) and adds a pin with one
/// CAS, or stores nothing when the word already says all that. False when
/// the word names another page or is frozen.
bool TryHit(FrameWord& word, PageId page, bool write, bool pin) {
  const std::uint64_t set = kRefBit | (write ? kDirtyBit : 0);
  std::uint64_t w = word.load(std::memory_order_acquire);
  for (;;) {
    if (PageOf(w) != page || (w & kFrozenBit) != 0) return false;
    PATHIX_DCHECK((!pin || Pins(w) < kPinMask) && "pin count overflow");
    const std::uint64_t want = (w | set) + (pin ? 1 : 0);
    if (want == w) return true;
    if (word.compare_exchange_weak(w, want, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return true;
    }
  }
}

}  // namespace

/// RAII lock on the shard currently responsible for one page. Acquiring
/// any shard mutex blocks a concurrent Resize (which needs them all), so
/// re-validating the shard count under the lock pins the page->shard
/// mapping for the critical section.
class BufferPool::LockedShard {
 public:
  LockedShard(const BufferPool* pool, PageId page) NO_THREAD_SAFETY_ANALYSIS {
    for (;;) {
      const std::size_t count =
          pool->shard_count_.load(std::memory_order_acquire);
      Shard& s = pool->shards_[ShardIndex(page, count)];
      s.mu.Lock();
      if (count == pool->shard_count_.load(std::memory_order_relaxed)) {
        shard_ = &s;
        return;
      }
      s.mu.Unlock();  // resized between the load and the lock: re-route
    }
  }
  ~LockedShard() NO_THREAD_SAFETY_ANALYSIS { shard_->mu.Unlock(); }

  LockedShard(const LockedShard&) = delete;
  LockedShard& operator=(const LockedShard&) = delete;

  Shard& shard() const { return *shard_; }

 private:
  Shard* shard_ = nullptr;
};

BufferPool::FrameTable::FrameTable(std::size_t frames)
    : frame_count(frames),
      hint_mask(std::bit_ceil(std::max<std::size_t>(2 * frames, 1)) - 1),
      words(new FrameWord[frames]),
      hints(new std::atomic<std::uint32_t>[hint_mask + 1]) {
  PATHIX_DCHECK(frames < kNoFrame && "frame index must fit a hint slot");
  for (std::size_t i = 0; i < frame_count; ++i) {
    words[i].store(kFreeWord, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i <= hint_mask; ++i) {
    hints[i].store(kNoFrame, std::memory_order_relaxed);
  }
}

std::size_t BufferPool::ShardCountFor(std::size_t capacity) {
  std::size_t shards = 1;
  while (shards < kMaxShards &&
         capacity / (shards * 2) >= kShardingThreshold) {
    shards *= 2;
  }
  return shards;
}

void BufferPool::LockAllShards() const {
  for (Shard& s : shards_) s.mu.Lock();
}

void BufferPool::UnlockAllShards() const {
  for (std::size_t i = shards_.size(); i > 0; --i) {
    shards_[i - 1].mu.Unlock();
  }
}

BufferTouchResult BufferPool::Touch(PageId page, bool write, bool pin) {
  PATHIX_DCHECK(page != kInvalidPage);
  if (const FrameTable* t = live_.load(std::memory_order_acquire)) {
    const std::uint32_t frame =
        t->hints[page & t->hint_mask].load(std::memory_order_acquire);
    if (frame < t->frame_count &&
        TryHit(t->words[frame], page, write, pin)) {
      return Hit(t->words[frame], write, pin);
    }
  }
  LockedShard locked(this, page);
  Shard& s = locked.shard();
  s.mu.AssertHeld();
  return TouchLocked(s, page, write, pin);
}

BufferTouchResult BufferPool::Hit(FrameWord& word, bool write, bool pin) {
  hits_.Add(write ? 1 : 0);
  BufferTouchResult r;
  r.hit = true;
  r.admitted = true;
  if (pin) r.frame = &word;
  return r;
}

BufferTouchResult BufferPool::TouchLocked(Shard& s, PageId page, bool write,
                                          bool pin) {
  auto it = s.slots.find(page);
  if (it != s.slots.end()) {
    // Resident but the hint missed it. Under the latch the word holds the
    // page unfrozen, so the hit cannot fail.
    FrameWord& word = WordAt(s, it->second);
    const bool hit = TryHit(word, page, write, pin);
    PATHIX_DCHECK(hit && "a resident frame's word names its page");
    (void)hit;
    return Hit(word, write, pin);
  }
  BufferTouchResult r;
  if (write) {
    ++s.stats.write_misses;
  } else {
    ++s.stats.read_misses;
  }
  if (s.capacity == 0) return r;  // shard holds nothing: pass through
  while (s.slots.size() >= s.capacity) {
    bool wrote_back = false;
    if (!EvictOne(s, &wrote_back)) {
      ++s.stats.pin_bypasses;  // every frame pinned: pass through
      return r;
    }
    if (wrote_back) ++r.writebacks;
  }
  std::size_t slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
  } else {
    PATHIX_DCHECK(s.used < s.reserved && "a shard outgrew its words");
    slot = s.used++;
  }
  FrameTable& t = *live_.load(std::memory_order_relaxed);
  const std::size_t frame = s.base + slot;
  t.words[frame].store(MakeWord(page, write, pin, generation_),
                       std::memory_order_release);
  t.hints[page & t.hint_mask].store(static_cast<std::uint32_t>(frame),
                                    std::memory_order_release);
  s.slots.emplace(page, slot);
  r.admitted = true;
  if (pin) r.frame = &t.words[frame];
  return r;
}

bool BufferPool::EvictOne(Shard& s, bool* wrote_back) {
  const std::size_t n = s.used;
  if (n == 0) return false;
  // One full sweep may only clear reference bits; the second then finds a
  // victim. Only pinned frames survive 2n probes.
  for (std::size_t step = 0; step < 2 * n + 1; ++step) {
    const std::size_t here = s.hand;
    s.hand = (s.hand + 1) % n;
    FrameWord& word = WordAt(s, here);
    std::uint64_t w = word.load(std::memory_order_acquire);
    // A failed CAS means a latch-free hit or pin changed the word: decide
    // again on the new value, so the racing touch wins.
    for (;;) {
      if (PageOf(w) == kInvalidPage) break;  // free slot
      if (Pins(w) > 0) break;                // pinned frames never leave
      if ((w & kRefBit) != 0) {
        // Spend the second chance.
        if (word.compare_exchange_weak(w, w & ~kRefBit,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          break;
        }
        continue;
      }
      if (word.compare_exchange_weak(w, kFreeWord, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        *wrote_back = (w & kDirtyBit) != 0;
        Retire(s, here, w);
        return true;
      }
    }
  }
  return false;
}

void BufferPool::Retire(Shard& s, std::size_t slot, std::uint64_t word) {
  if ((word & kDirtyBit) != 0) ++s.stats.writebacks;
  ++s.stats.evictions;
  s.slots.erase(PageOf(word));
  s.free_slots.push_back(slot);
  if (s.over && s.slots.size() <= s.capacity) {
    s.over = false;  // the shrink's overflow is absorbed
    over_shards_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::uint64_t BufferPool::Unpin(PageId page, FrameWord* frame) {
  if (frame != nullptr) {
    // The word is read (acquire) before the overflow count, so a word
    // republished by a shrink shows that shrink's overflow.
    std::uint64_t w = frame->load(std::memory_order_acquire);
    while (PageOf(w) == page && (w & kFrozenBit) == 0 &&
           over_shards_.load(std::memory_order_relaxed) == 0) {
      PATHIX_DCHECK(Pins(w) > 0 && "unpin of an unpinned frame");
      if (frame->compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return 0;
      }
    }
  }
  LockedShard locked(this, page);
  Shard& s = locked.shard();
  s.mu.AssertHeld();
  auto it = s.slots.find(page);
  if (it == s.slots.end()) return 0;
  const std::size_t slot = it->second;
  FrameWord& word = WordAt(s, slot);
  std::uint64_t w = word.load(std::memory_order_acquire);
  for (;;) {
    if (Pins(w) > 1 || s.slots.size() <= s.capacity) {
      // The frame stays: drop the pin (an unpinned frame has none).
      if (Pins(w) == 0 ||
          word.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return 0;
      }
      continue;
    }
    // The pin was the only thing holding this frame above a shrunken
    // capacity: retire it now (unless a racing hit pins it first).
    if (word.compare_exchange_weak(w, kFreeWord, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      break;
    }
  }
  Retire(s, slot, w);
  return (w & kDirtyBit) != 0 ? 1 : 0;
}

std::uint64_t BufferPool::Resize(std::size_t capacity_pages)
    NO_THREAD_SAFETY_ANALYSIS {
  if (capacity_.load(std::memory_order_relaxed) == capacity_pages) {
    return 0;  // same capacity: warm state untouched
  }
  LockAllShards();
  std::uint64_t writebacks = 0;
  const std::size_t old_count = shard_count_.load(std::memory_order_relaxed);
  const std::size_t new_count = ShardCountFor(capacity_pages);
  FrameTable* table = live_.load(std::memory_order_relaxed);

  // Freeze every word, gathering the resident frames in global victim
  // order: per shard, clock order starting at the hand — the frames an
  // eviction sweep would reach first come first ("the cold end"). A frozen
  // word fails every latch-free CAS, so the values read here are final.
  std::vector<std::uint64_t> resident;
  for (std::size_t i = 0; i < old_count; ++i) {
    Shard& s = shards_[i];
    for (std::size_t step = 0; step < s.used; ++step) {
      const std::uint64_t w =
          WordAt(s, (s.hand + step) % s.used)
              .fetch_or(kFrozenBit, std::memory_order_acq_rel);
      if (PageOf(w) != kInvalidPage) resident.push_back(w);
    }
  }
  // Within the victim order, reference-bit-clear frames are colder than
  // reference-bit-set ones (a sweep evicts them a pass earlier).
  std::stable_partition(resident.begin(), resident.end(),
                        [](std::uint64_t w) { return (w & kRefBit) == 0; });

  std::array<std::size_t, kMaxShards> caps{};
  const std::size_t base = capacity_pages / new_count;
  const std::size_t rem = capacity_pages % new_count;
  for (std::size_t i = 0; i < new_count; ++i) {
    caps[i] = base + (i < rem ? 1 : 0);
  }

  // Route each frame to its new shard. Warmest frames are inserted last;
  // a shard over its new capacity drops from the cold front — except
  // pinned frames, which are always kept (Unpin retires the overflow).
  std::array<std::vector<std::uint64_t>, kMaxShards> kept;
  for (auto keep = resident.rbegin(); keep != resident.rend(); ++keep) {
    const std::size_t i = ShardIndex(PageOf(*keep), new_count);
    if (Pins(*keep) == 0 && kept[i].size() >= caps[i]) {
      if ((*keep & kDirtyBit) != 0) {
        ++writebacks;
        ++shards_[i].stats.writebacks;
      }
      ++shards_[i].stats.evictions;
      continue;
    }
    kept[i].push_back(*keep);
  }

  // Republished words carry a new generation, so none equals a word from
  // before the resize: a latch-free CAS prepared on an old value fails
  // even when its frame comes back unchanged (an unpin must then see the
  // overflow this resize may leave).
  ++generation_;

  // Lay the shards out one after another. A shard never needs more words
  // than the larger of its capacity and what it kept: it admits only
  // below capacity, reusing freed slots first.
  std::size_t frames = 0;
  for (std::size_t i = 0; i < kMaxShards; ++i) {
    frames += std::max(caps[i], kept[i].size());
  }
  if (table == nullptr || frames > table->frame_count) {
    const std::size_t grown =
        std::max(frames, table != nullptr ? 2 * table->frame_count : 0);
    tables_.push_back(std::make_unique<FrameTable>(grown));
    table = tables_.back().get();
  }
  std::vector<std::uint64_t> words(table->frame_count, kFreeWord);
  std::size_t over = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < kMaxShards; ++i) {
    Shard& s = shards_[i];
    // The insertion loop ran warmest-first; reverse so the hand (slot 0)
    // points at the coldest surviving frame, preserving victim order.
    std::reverse(kept[i].begin(), kept[i].end());
    s.slots.clear();
    s.free_slots.clear();
    s.base = next;
    s.used = kept[i].size();
    s.reserved = std::max(caps[i], kept[i].size());
    s.hand = 0;
    s.capacity = caps[i];
    s.over = s.used > s.capacity;
    if (s.over) ++over;
    for (std::size_t slot = 0; slot < s.used; ++slot) {
      const std::uint64_t w =
          WithGeneration(kept[i][slot] & ~kFrozenBit, generation_);
      s.slots.emplace(PageOf(w), slot);
      words[next + slot] = w;
    }
    next += s.reserved;
  }
  for (std::size_t h = 0; h <= table->hint_mask; ++h) {
    table->hints[h].store(kNoFrame, std::memory_order_relaxed);
  }
  for (std::size_t f = 0; f < next; ++f) {
    if (PageOf(words[f]) == kInvalidPage) continue;
    table->hints[PageOf(words[f]) & table->hint_mask].store(
        static_cast<std::uint32_t>(f), std::memory_order_relaxed);
  }
  // The overflow count is set before the words are republished (release),
  // so an unpin that reads a republished word also reads the count.
  over_shards_.store(over, std::memory_order_relaxed);
  for (std::size_t f = 0; f < table->frame_count; ++f) {
    table->words[f].store(words[f], std::memory_order_release);
  }
  live_.store(table, std::memory_order_release);

  capacity_.store(capacity_pages, std::memory_order_relaxed);
  shard_count_.store(new_count, std::memory_order_release);
  UnlockAllShards();
  return writebacks;
}

std::uint64_t BufferPool::FlushAll() NO_THREAD_SAFETY_ANALYSIS {
  LockAllShards();
  std::uint64_t flushed = 0;
  for (Shard& s : shards_) {
    for (std::size_t slot = 0; slot < s.used; ++slot) {
      const std::uint64_t w =
          WordAt(s, slot).fetch_and(~kDirtyBit, std::memory_order_acq_rel);
      if (PageOf(w) == kInvalidPage || (w & kDirtyBit) == 0) continue;
      ++s.stats.writebacks;
      ++flushed;
    }
  }
  UnlockAllShards();
  return flushed;
}

BufferPoolStats BufferPool::GetStats() const NO_THREAD_SAFETY_ANALYSIS {
  LockAllShards();
  BufferPoolStats out;
  for (const Shard& s : shards_) out += s.stats;
  UnlockAllShards();
  out.read_hits = hits_.Sum(0);
  out.write_hits = hits_.Sum(1);
  return out;
}

std::size_t BufferPool::ResidentPages() const NO_THREAD_SAFETY_ANALYSIS {
  LockAllShards();
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.slots.size();
  UnlockAllShards();
  return n;
}

bool BufferPool::Resident(PageId page) const {
  LockedShard locked(this, page);
  Shard& s = locked.shard();
  s.mu.AssertHeld();
  return s.slots.find(page) != s.slots.end();
}

bool BufferPool::Dirty(PageId page) const {
  LockedShard locked(this, page);
  Shard& s = locked.shard();
  s.mu.AssertHeld();
  auto it = s.slots.find(page);
  return it != s.slots.end() &&
         (WordAt(s, it->second).load(std::memory_order_acquire) &
          kDirtyBit) != 0;
}

std::size_t BufferPool::AllocatedFrames() const NO_THREAD_SAFETY_ANALYSIS {
  LockAllShards();
  std::size_t n = 0;
  for (const auto& t : tables_) n += t->frame_count;
  UnlockAllShards();
  return n;
}

}  // namespace pathix
