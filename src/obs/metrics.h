#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_slot.h"

/// \file metrics.h
/// \brief The metrics registry: named counters, gauges and log-bucketed
/// histograms — the reporting spine of the online reconfiguration stack.
///
/// A MetricsRegistry is a map from (name, label set) to a metric object
/// with a stable address; hot paths resolve their handles once and then
/// update through the pointer (no registry lookup per operation). Counters
/// and histograms keep one cell per thread slot (common/thread_slot.h): an
/// update locks only the calling thread's cell, so serving threads write
/// no shared cache line, and a read merges every cell. Every shared-state
/// rule of common/mutex.h applies: the cell mutexes, the gauges' mutexes
/// and the registry mutex are *leaves* of the lock hierarchy — metric
/// methods never call out — so instrumentation may be dropped into any
/// locked region of the engine.
///
/// Instances compose: SimDatabase owns one registry per database (so two
/// replays of the same trace in one process — online vs oracle vs static —
/// report disjoint counters and the acceptance harness can compare them
/// exactly), while GlobalMetrics() is the process-wide default used by
/// standalone emitters (bench_json.h). Exporters (obs/export.h) work on
/// MetricsSnapshot, so live registries and saved snapshots export the same.
///
/// Histograms are log-bucketed (HDR-style: power-of-two octaves, each
/// split into kSubBuckets linear sub-buckets, 12.5% relative width), with
/// exact count/sum/min/max and percentile extraction that brackets the true
/// order statistic within one bucket: Percentile(q) returns a value r with
/// lower(b) <= r and true_quantile <= r <= upper(b) for the bucket b
/// containing the rank — and the exact max for the saturation bucket.

namespace pathix::obs {

/// Sorted (key, value) pairs identifying one series of a metric family.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonically-increasing value: the sum of its per-thread cells.
class Counter {
 public:
  /// Adds \p delta (negative deltas are ignored — counters only go up).
  void Increment(double delta = 1.0) {
    if (delta <= 0) return;
    cells_.Local([delta](double& v) { v += delta; });
  }

  /// Overwrites the value from an external monotone source (the pager's
  /// tallies, the registry's build counters): mirroring, not counting.
  /// The caller owns the monotonicity argument. One cell takes the value
  /// and the others are zeroed, all under every cell's lock.
  void MirrorTo(double value) {
    bool first = true;
    cells_.ForEach([&](double& v) {
      v = first ? value : 0;
      first = false;
    });
  }

  double Value() const {
    double sum = 0;
    cells_.ForEach([&](double v) { sum += v; });
    return sum;
  }

 private:
  ThreadCells<double> cells_;
};

/// \brief Point-in-time value that may move in both directions.
class Gauge {
 public:
  void Set(double value) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    value_ = value;
  }
  void Add(double delta) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    value_ += delta;
  }
  double Value() const EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  double value_ GUARDED_BY(mu_) = 0;
};

/// Bucket layout shared by Histogram and HistogramData. Bucket 0 holds
/// everything below 1 (latencies under a microsecond, zero-page ops);
/// buckets 1..kOctaves*kSubBuckets are lower-inclusive log buckets
/// [2^o * (1 + s/kSubBuckets), next boundary); the last bucket saturates
/// (values >= 2^kOctaves). Boundary values are exact powers-of-two sums, so
/// bucket assignment has no floating-point boundary ambiguity.
struct HistogramBuckets {
  static constexpr int kSubBuckets = 8;  ///< power of two (exact sub-index)
  static constexpr int kOctaves = 40;    ///< covers up to ~10^12
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets + 1;

  static int BucketFor(double value);
  /// Lower bound of bucket \p index (inclusive). 0 for bucket 0.
  static double LowerBound(int index);
  /// Upper bound of bucket \p index (exclusive); +inf for the saturation
  /// bucket.
  static double UpperBound(int index);
};

/// Everything a histogram knows, copied out under one lock — the form the
/// exporters and tests consume.
struct HistogramData {
  std::vector<std::uint64_t> buckets;  ///< kBucketCount entries (or empty)
  std::uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  /// The value at quantile \p q in [0, 1]: rank ceil(q * count) (clamped to
  /// [1, count]), bracketed within the rank's bucket, exact for the
  /// saturation bucket and never above the exact max. 0 when empty.
  double Percentile(double q) const;

  /// Records \p value into this plain-data histogram — no lock, no atomics:
  /// the serving engine's per-thread tally form. Each worker observes into
  /// its own HistogramData and the driver folds them into the shared
  /// Histogram once, via Histogram::MergeFrom.
  void Observe(double value);

  /// Folds \p other's observations into this one (bucket-wise add,
  /// count/sum add, min/max widen). Either side may be empty.
  void MergeFrom(const HistogramData& other);

  /// The observations made after \p earlier was taken: bucket-wise and
  /// count/sum subtraction (\p earlier must be an earlier snapshot of the
  /// *same* histogram, DCHECKed via the count). min/max degrade to bucket
  /// bounds — the exact extremes of just the window are not recoverable —
  /// except that max never exceeds the all-time exact max. An empty delta
  /// is a default HistogramData (count 0, empty buckets).
  HistogramData DeltaSince(const HistogramData& earlier) const;
};

/// \brief Log-bucketed distribution of latencies or sizes: the merge of
/// its per-thread cells.
class Histogram {
 public:
  void Observe(double value) {
    cells_.Local([value](HistogramData& d) { d.Observe(value); });
  }

  /// Folds a per-thread HistogramData tally into this histogram under one
  /// lock acquisition (vs one per Observe).
  void MergeFrom(const HistogramData& tally) {
    cells_.Local([&](HistogramData& d) { d.MergeFrom(tally); });
  }

  std::uint64_t Count() const { return Snapshot().count; }
  double Sum() const { return Snapshot().sum; }
  /// Exact largest observed value (-inf when empty).
  double Max() const { return Snapshot().max; }
  /// See HistogramData::Percentile.
  double Percentile(double q) const { return Snapshot().Percentile(q); }

  /// Every cell merged, as of one instant.
  HistogramData Snapshot() const {
    HistogramData merged;
    cells_.ForEach([&](const HistogramData& d) { merged.MergeFrom(d); });
    return merged;
  }

 private:
  ThreadCells<HistogramData> cells_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

const char* ToString(MetricType type);

/// One series of one metric, copied out of a registry.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricType type = MetricType::kCounter;
  double value = 0;         ///< counter / gauge
  HistogramData histogram;  ///< histogram only
};

/// A registry's full state at one instant, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// The sample of (\p name, \p labels), or nullptr. \p labels need not be
  /// pre-sorted.
  const MetricSample* Find(std::string_view name, MetricLabels labels) const;
  /// Convenience: Find()'s counter/gauge value, or 0 when absent.
  double Value(std::string_view name, MetricLabels labels = {}) const;
  /// Sum of every series of family \p name (counters/gauges).
  double SumOf(std::string_view name) const;

  /// The windowed view between \p earlier and this snapshot (both of the
  /// same registry, \p earlier taken first): counters subtract, histograms
  /// subtract bucket-wise (HistogramData::DeltaSince), gauges keep their
  /// current (point-in-time) value. Series absent from \p earlier are
  /// taken whole; series that only exist in \p earlier are dropped. The
  /// per-phase percentile tables (phase_summary ledger records) are built
  /// from exactly this.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;
};

/// \brief The process's (or one subsystem's) named metrics.
///
/// Lookup creates on first use; returned references stay valid for the
/// registry's lifetime (hot paths cache them). A name must keep one type
/// for the registry's lifetime (DCHECKed).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& CounterAt(std::string_view name, MetricLabels labels = {})
      EXCLUDES(mu_);
  Gauge& GaugeAt(std::string_view name, MetricLabels labels = {})
      EXCLUDES(mu_);
  Histogram& HistogramAt(std::string_view name, MetricLabels labels = {})
      EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  struct SeriesKey {
    std::string name;
    MetricLabels labels;
    bool operator<(const SeriesKey& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  struct Series {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& SeriesAt(std::string_view name, MetricLabels labels,
                   MetricType type) REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<SeriesKey, Series> series_ GUARDED_BY(mu_);
};

/// The process-wide default registry (standalone emitters; the engine's
/// per-database registries live on SimDatabase).
MetricsRegistry& GlobalMetrics();

}  // namespace pathix::obs
