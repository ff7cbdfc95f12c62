#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/mutex.h"

/// \file thread_slot.h
/// \brief Per-thread accounting cells: a read that tallies into its own
/// thread's cell writes no cache line that the other threads write.
///
/// Every thread draws a slot number in [0, kThreadSlots) the first time it
/// asks, round-robin, and keeps it for its lifetime. ThreadCells<T> holds
/// kThreadSlots cache-line-aligned copies of T, each behind its own leaf
/// Mutex (common/mutex.h): an update locks only the caller's cell, a read
/// locks every cell in index order and merges them. Threads that share a
/// slot (more than kThreadSlots live threads) share a cell and contend on
/// its mutex; the totals stay exact. The pager's tallies and the metric
/// counters and histograms are built on it. ThreadCounters<N> is the
/// lock-free sibling for plain event counts (the buffer pool's hits).

namespace pathix {

/// Cells per ThreadCells: comfortably above the worker counts the engine
/// serves with, small enough that every counter stays a few KB.
inline constexpr std::size_t kThreadSlots = 16;

/// The calling thread's slot in [0, kThreadSlots); stable for the thread's
/// lifetime. Consecutive new threads take consecutive slots, so up to
/// kThreadSlots threads started together never share one.
inline std::size_t ThreadSlot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
  return slot;
}

/// \brief One T per thread slot, each under its own leaf Mutex.
template <typename T>
class ThreadCells {
 public:
  /// Applies \p fn to the calling thread's cell, holding that cell's mutex
  /// only.
  template <typename Fn>
  void Local(Fn&& fn) {
    Cell& cell = cells_[ThreadSlot()];
    MutexLock lock(&cell.mu);
    fn(cell.value);
  }

  /// Applies \p fn to every cell in index order while holding every cell's
  /// mutex (taken in index order), so the visit sees one instant: a Local
  /// update lands wholly before or wholly after it.
  template <typename Fn>
  void ForEach(Fn&& fn) NO_THREAD_SAFETY_ANALYSIS {
    for (Cell& cell : cells_) cell.mu.Lock();
    for (Cell& cell : cells_) fn(cell.value);
    for (Cell& cell : cells_) cell.mu.Unlock();
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const NO_THREAD_SAFETY_ANALYSIS {
    for (Cell& cell : cells_) cell.mu.Lock();
    for (const Cell& cell : cells_) fn(cell.value);
    for (Cell& cell : cells_) cell.mu.Unlock();
  }

 private:
  struct alignas(64) Cell {
    Mutex mu;
    T value GUARDED_BY(mu){};
  };

  mutable std::array<Cell, kThreadSlots> cells_;
};

/// \brief N monotone counters per thread slot, bumped without a lock.
///
/// Add() is one relaxed fetch_add on the calling thread's own cache line;
/// threads that share a slot share the line and the counts stay exact.
/// Sum() adds every slot's count. It is not one instant: taken while
/// others add, it lands between the totals before and after the read.
template <std::size_t N>
class ThreadCounters {
 public:
  void Add(std::size_t counter) {
    cells_[ThreadSlot()].counts[counter].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t Sum(std::size_t counter) const {
    std::uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.counts[counter].load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, N> counts{};
  };

  std::array<Cell, kThreadSlots> cells_{};
};

}  // namespace pathix
