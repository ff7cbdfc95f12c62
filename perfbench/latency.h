#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

/// \file latency.h
/// \brief A client's latency histogram over the whole window.
///
/// Fixed-size and allocated before the window, so recording a latency
/// never allocates and the window's memory growth is the engine's alone.
/// Buckets are log-linear over nanoseconds: exact below 64 ns, then 64 per
/// octave (at most 1.6% wide). A percentile interpolates by rank inside its
/// bucket, so it reads with all its digits and pools every sample of the
/// window, not one slice's tail.

namespace perfbench {

class LatencyHistogram {
 public:
  void Record(std::uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }

  void MergeFrom(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// The \p q quantile in microseconds (0 when empty).
  double PercentileUs(double q) const {
    if (count_ == 0) return 0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto n = static_cast<double>(buckets_[i]);
      if (n > 0 && seen + n >= rank) {
        const double within = std::clamp((rank - seen) / n, 0.0, 1.0);
        return (Lower(i) + within * Width(i)) / 1e3;
      }
      seen += n;
    }
    return Lower(kBuckets - 1) / 1e3;
  }

 private:
  static constexpr int kSubBits = 6;  ///< 64 buckets per octave
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kOctaves = 40;  ///< up to 2^46 ns, about 20 hours
  static constexpr std::size_t kBuckets = kSub * (kOctaves + 1);

  static std::size_t Index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int shift = std::bit_width(ns) - 1 - kSubBits;
    const std::uint64_t sub = (ns >> shift) - kSub;
    return std::min<std::size_t>(
        static_cast<std::size_t>(shift + 1) * kSub + sub, kBuckets - 1);
  }
  static double Lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int shift = static_cast<int>(i / kSub) - 1;
    return static_cast<double>((kSub + i % kSub) << shift);
  }
  static double Width(std::size_t i) {
    return i < kSub ? 1.0 : static_cast<double>(1ull << (i / kSub - 1));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
