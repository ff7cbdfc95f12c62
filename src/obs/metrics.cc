#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace pathix::obs {

int HistogramBuckets::BucketFor(double value) {
  if (!(value >= 1)) return 0;  // < 1, zero, negative, NaN
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp
  const int octave = exp - 1;  // value in [2^octave, 2^(octave+1))
  if (octave >= kOctaves) return kBucketCount - 1;  // saturation
  // mantissa*2 is in [1, 2); the sub-bucket index is exact for boundary
  // values because kSubBuckets is a power of two (binary fractions).
  const int sub = static_cast<int>((mantissa * 2 - 1) * kSubBuckets);
  return 1 + octave * kSubBuckets + std::min(sub, kSubBuckets - 1);
}

double HistogramBuckets::LowerBound(int index) {
  PATHIX_DCHECK(index >= 0 && index < kBucketCount);
  if (index == 0) return 0;
  if (index == kBucketCount - 1) return std::ldexp(1.0, kOctaves);
  const int octave = (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double HistogramBuckets::UpperBound(int index) {
  PATHIX_DCHECK(index >= 0 && index < kBucketCount);
  if (index == 0) return 1;
  if (index == kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return LowerBound(index + 1);
}

double HistogramData::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (int b = 0; b < HistogramBuckets::kBucketCount; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= rank) {
      if (b == HistogramBuckets::kBucketCount - 1) return max;
      // Representative: the bucket's upper bound, capped at the exact max
      // (so p100 == max and the bracket lower(b) <= r <= upper(b) holds —
      // the max is never below the rank's bucket).
      return std::min(HistogramBuckets::UpperBound(b), max);
    }
  }
  return max;  // unreachable for consistent data
}

HistogramData HistogramData::DeltaSince(const HistogramData& earlier) const {
  PATHIX_DCHECK(count >= earlier.count &&
                "DeltaSince wants an earlier snapshot of the same histogram");
  HistogramData delta;
  if (count <= earlier.count) return delta;  // empty window
  delta.count = count - earlier.count;
  delta.sum = sum - earlier.sum;
  delta.buckets.assign(HistogramBuckets::kBucketCount, 0);
  int first = -1;
  int last = -1;
  for (int b = 0; b < HistogramBuckets::kBucketCount; ++b) {
    const auto i = static_cast<std::size_t>(b);
    const std::uint64_t before =
        i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    const std::uint64_t now = i < buckets.size() ? buckets[i] : 0;
    PATHIX_DCHECK(now >= before);
    delta.buckets[i] = now - before;
    if (delta.buckets[i] > 0) {
      if (first < 0) first = b;
      last = b;
    }
  }
  // The window's exact extremes are gone; bracket them with the occupied
  // buckets' bounds. The all-time max still caps the upper end (it is
  // >= every windowed observation), which keeps Percentile()'s "never
  // above the exact max" property intact for the delta.
  delta.min = HistogramBuckets::LowerBound(first);
  delta.max = std::min(max, HistogramBuckets::UpperBound(last));
  return delta;
}

void HistogramData::Observe(double value) {
  const int bucket = HistogramBuckets::BucketFor(value);
  if (buckets.empty()) {
    buckets.assign(HistogramBuckets::kBucketCount, 0);
  }
  ++buckets[static_cast<std::size_t>(bucket)];
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
}

void HistogramData::MergeFrom(const HistogramData& other) {
  if (other.count == 0) return;
  if (buckets.empty()) {
    buckets.assign(HistogramBuckets::kBucketCount, 0);
  }
  PATHIX_DCHECK(other.buckets.size() == buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

const char* ToString(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          MetricLabels labels) const {
  std::sort(labels.begin(), labels.end());
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::Value(std::string_view name,
                              MetricLabels labels) const {
  const MetricSample* s = Find(name, std::move(labels));
  return s == nullptr ? 0 : s->value;
}

double MetricsSnapshot::SumOf(std::string_view name) const {
  double total = 0;
  for (const MetricSample& s : samples) {
    if (s.name == name && s.type != MetricType::kHistogram) total += s.value;
  }
  return total;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.samples.reserve(samples.size());
  for (const MetricSample& now : samples) {
    const MetricSample* before = earlier.Find(now.name, now.labels);
    MetricSample d = now;
    if (before != nullptr) {
      switch (now.type) {
        case MetricType::kCounter:
          d.value = now.value - before->value;
          break;
        case MetricType::kGauge:
          break;  // point-in-time: the current value *is* the window's view
        case MetricType::kHistogram:
          d.histogram = now.histogram.DeltaSince(before->histogram);
          break;
      }
    }
    delta.samples.push_back(std::move(d));
  }
  return delta;
}

MetricsRegistry::Series& MetricsRegistry::SeriesAt(std::string_view name,
                                                   MetricLabels labels,
                                                   MetricType type) {
  std::sort(labels.begin(), labels.end());
  SeriesKey key{std::string(name), std::move(labels)};
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series series;
    series.type = type;
    switch (type) {
      case MetricType::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        series.histogram = std::make_unique<Histogram>();
        break;
    }
    it = series_.emplace(std::move(key), std::move(series)).first;
  }
  PATHIX_DCHECK(it->second.type == type &&
                "a metric name keeps one type for the registry's lifetime");
  return it->second;
}

Counter& MetricsRegistry::CounterAt(std::string_view name,
                                    MetricLabels labels) {
  MutexLock lock(&mu_);
  return *SeriesAt(name, std::move(labels), MetricType::kCounter).counter;
}

Gauge& MetricsRegistry::GaugeAt(std::string_view name, MetricLabels labels) {
  MutexLock lock(&mu_);
  return *SeriesAt(name, std::move(labels), MetricType::kGauge).gauge;
}

Histogram& MetricsRegistry::HistogramAt(std::string_view name,
                                        MetricLabels labels) {
  MutexLock lock(&mu_);
  return *SeriesAt(name, std::move(labels), MetricType::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Two phases so metric mutexes are only taken after the registry mutex is
  // released (both are leaves; neither is ever held while acquiring the
  // other).
  std::vector<std::pair<const SeriesKey*, const Series*>> entries;
  {
    ReaderMutexLock lock(&mu_);
    entries.reserve(series_.size());
    for (const auto& [key, series] : series_) {
      entries.emplace_back(&key, &series);
    }
  }
  // The map's node addresses are stable and entries are never erased, so
  // the pointers stay valid after the lock is dropped (a concurrent insert
  // may add series this snapshot misses — snapshots are point-in-time).
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(entries.size());
  for (const auto& [key, series] : entries) {
    MetricSample sample;
    sample.name = key->name;
    sample.labels = key->labels;
    sample.type = series->type;
    switch (series->type) {
      case MetricType::kCounter:
        sample.value = series->counter->Value();
        break;
      case MetricType::kGauge:
        sample.value = series->gauge->Value();
        break;
      case MetricType::kHistogram:
        sample.histogram = series->histogram->Snapshot();
        break;
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace pathix::obs
