#include "storage/pager.h"

#include "common/status.h"
#include "obs/metrics.h"

namespace pathix {

const char* ToString(PageOpKind kind) {
  switch (kind) {
    case PageOpKind::kQuery:
      return "query";
    case PageOpKind::kInsert:
      return "insert";
    case PageOpKind::kDelete:
      return "delete";
    case PageOpKind::kBuild:
      return "build";
    case PageOpKind::kOther:
      return "other";
  }
  return "?";
}

void Pager::EnableBuffer(std::size_t capacity_pages) {
  const std::uint64_t writebacks = pool_.Resize(capacity_pages);
  buffered_.store(capacity_pages > 0, std::memory_order_relaxed);
  if (writebacks > 0) {
    // Dirty frames evicted by the shrink (or disable's flush-everything)
    // become real page writes now.
    AccessStats d;
    d.writes = writebacks;
    Book(internal::FrameFor(this), d);
  }
}

void Pager::BookUnframed(AccessStats d) {
  tallies_.Local([&](Tally& t) { t.stats += d; });
}

AccessStats Pager::stats() const {
  AccessStats sum;
  tallies_.ForEach([&](const Tally& t) { sum += t.stats; });
  return sum;
}

void Pager::ResetStats() {
  tallies_.ForEach([](Tally& t) { t.stats = AccessStats{}; });
}

AccessStats Pager::tally(PageOpKind kind) const {
  AccessStats sum;
  tallies_.ForEach([&](const Tally& t) {
    sum += t.kinds[static_cast<std::size_t>(kind)];
  });
  return sum;
}

std::map<std::string, AccessStats> Pager::label_tallies() const {
  std::map<std::string, AccessStats> sum;
  tallies_.ForEach([&](const Tally& t) {
    for (const auto& [label, stats] : t.labels) sum[label] += stats;
  });
  return sum;
}

PageGuard Pager::BufferedTouch(PageId page, PageIo io, bool pin,
                               AccessFrame* f) {
  AccessStats d;
  BufferTouchResult r;
  if (io == PageIo::kRead) {
    r = pool_.TouchRead(page, pin);
    if (r.hit) {
      d.buffer_hits = 1;
    } else {
      d.reads = 1;  // miss (admitted or bypassed): a real page fetch
    }
    d.writes = r.writebacks;
  } else {
    r = pool_.TouchWrite(page, pin);
    // Write-back: an admitted write only dirties the frame — its charge
    // lands when the frame is written back. A bypassed write (zero-capacity
    // shard, or every frame pinned) is charged through immediately.
    d.writes = (r.admitted ? 0 : 1) + r.writebacks;
  }
  if (d.logical_total() != 0) Book(f, d);
  return r.frame != nullptr ? PageGuard(this, page, r.frame) : PageGuard();
}

void Pager::UnpinPage(PageId page, FrameWord* frame) {
  const std::uint64_t writebacks = pool_.Unpin(page, frame);
  if (writebacks == 0) return;
  AccessStats d;
  d.writes = writebacks;
  Book(internal::FrameFor(this), d);
}

void Pager::ResetTallies() {
  tallies_.ForEach([](Tally& t) {
    t.kinds = {};
    t.labels.clear();
  });
}

void Pager::CloseFrame(PageOpKind kind, std::string_view label,
                       const AccessFrame& frame) {
  tallies_.Local([&](Tally& t) {
    if (!frame.exclude) t.stats += frame.deferred;
    t.kinds[static_cast<std::size_t>(kind)] += frame.local;
    if (label.empty()) return;
    auto it = t.labels.find(label);
    if (it == t.labels.end()) {
      it = t.labels.emplace(std::string(label), AccessStats{}).first;
    }
    it->second += frame.local;
  });
}

void Pager::ExportMetrics(obs::MetricsRegistry* registry) const {
  // Copy everything out first (each accessor takes the tally cells or the
  // pool latches briefly); the registry and metric mutexes are only
  // touched after, keeping both sides leaves of the lock hierarchy.
  const AccessStats stats = this->stats();
  std::array<AccessStats, kPageOpKindCount> kinds;
  for (std::size_t k = 0; k < kPageOpKindCount; ++k) {
    kinds[k] = tally(static_cast<PageOpKind>(k));
  }
  const std::map<std::string, AccessStats> labels = label_tallies();
  const std::uint64_t allocated = allocated_pages();
  const BufferPoolStats pool = pool_.GetStats();

  auto mirror = [registry](std::string_view name, obs::MetricLabels l,
                           std::uint64_t value) {
    registry->CounterAt(name, std::move(l))
        .MirrorTo(static_cast<double>(value));
  };
  mirror("pathix_pager_io_total", {{"io", "read"}}, stats.reads);
  mirror("pathix_pager_io_total", {{"io", "write"}}, stats.writes);
  mirror("pathix_pager_buffer_hits_total", {}, stats.buffer_hits);
  mirror("pathix_pager_buffer_evictions_total", {}, pool.evictions);
  mirror("pathix_pager_buffer_writebacks_total", {}, pool.writebacks);
  for (std::size_t k = 0; k < kPageOpKindCount; ++k) {
    const std::string op = ToString(static_cast<PageOpKind>(k));
    mirror("pathix_pager_pages_total", {{"op", op}, {"io", "read"}},
           kinds[k].reads);
    mirror("pathix_pager_pages_total", {{"op", op}, {"io", "write"}},
           kinds[k].writes);
    mirror("pathix_pager_pages_total", {{"op", op}, {"io", "hit"}},
           kinds[k].buffer_hits);
  }
  for (const auto& [label, tally] : labels) {
    mirror("pathix_pager_path_pages_total", {{"path", label}, {"io", "read"}},
           tally.reads);
    mirror("pathix_pager_path_pages_total", {{"path", label}, {"io", "write"}},
           tally.writes);
    mirror("pathix_pager_path_pages_total", {{"path", label}, {"io", "hit"}},
           tally.buffer_hits);
  }
  registry->GaugeAt("pathix_pager_allocated_pages")
      .Set(static_cast<double>(allocated));
}

ScopedAccessProbe::ScopedAccessProbe(Pager* pager, PageOpKind kind,
                                     std::string_view label, bool exclude)
    : pager_(pager), kind_(kind), label_(label) {
  frame_.pager = pager;
  frame_.exclude = exclude;
  frame_.prev = internal::tls_frame_top;
  // The frame this one's *counting* traffic should land on: the nearest
  // enclosing excluded frame of the same pager on this thread (directly,
  // or inherited through an enclosing counting frame).
  if (AccessFrame* outer = internal::FrameFor(pager)) {
    frame_.redirect = outer->exclude ? outer : outer->redirect;
  }
  internal::tls_frame_top = &frame_;
}

ScopedAccessProbe::~ScopedAccessProbe() {
  PATHIX_DCHECK(internal::tls_frame_top == &frame_ &&
                "probes must unwind in LIFO order on their own thread");
  internal::tls_frame_top = frame_.prev;
  pager_->CloseFrame(kind_, label_, frame_);
}

}  // namespace pathix
