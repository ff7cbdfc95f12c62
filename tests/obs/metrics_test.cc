// MetricsRegistry semantics (stable handles, label normalization,
// snapshots) and the two exporters. The Prometheus assertions pin the
// exposition-format details a scraper depends on: TYPE lines, sanitized
// names, escaped label values, cumulative buckets with a +Inf terminator.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "storage/pager.h"

namespace pathix::obs {
namespace {

TEST(CounterTest, IncrementIgnoresNonPositiveDeltas) {
  Counter c;
  c.Increment();
  c.Increment(2.5);
  c.Increment(0);
  c.Increment(-10);
  EXPECT_DOUBLE_EQ(c.Value(), 3.5);
  c.MirrorTo(42);
  EXPECT_DOUBLE_EQ(c.Value(), 42);
}

TEST(CounterTest, MirrorToOverwritesEveryThreadsShare) {
  // Increments land in the incrementing thread's cell; a mirror replaces
  // the sum of all of them.
  Counter c;
  std::thread other([&c] { c.Increment(5); });
  other.join();
  c.Increment(2);
  EXPECT_DOUBLE_EQ(c.Value(), 7);
  c.MirrorTo(3);
  EXPECT_DOUBLE_EQ(c.Value(), 3);
  std::thread again([&c] { c.Increment(1); });
  again.join();
  EXPECT_DOUBLE_EQ(c.Value(), 4);
}

TEST(HistogramTest, ReadsMergeEveryThreadsObservations) {
  Histogram h;
  std::thread other([&h] {
    h.Observe(100);
    h.Observe(3);
  });
  other.join();
  h.Observe(0.5);
  HistogramData tally;
  tally.Observe(7);
  h.MergeFrom(tally);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 110.5);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_DOUBLE_EQ(h.Snapshot().min, 0.5);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_DOUBLE_EQ(g.Value(), 7);
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter& a = reg.CounterAt("ops", {{"kind", "query"}});
  Counter& b = reg.CounterAt("ops", {{"kind", "query"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.CounterAt("ops", {{"kind", "insert"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter& a = reg.CounterAt("ops", {{"kind", "query"}, {"path", "p"}});
  Counter& b = reg.CounterAt("ops", {{"path", "p"}, {"kind", "query"}});
  EXPECT_EQ(&a, &b);
  a.Increment();
  const MetricsSnapshot snap = reg.Snapshot();
  // Find() sorts its argument too, so either spelling resolves.
  EXPECT_EQ(snap.Value("ops", {{"path", "p"}, {"kind", "query"}}), 1);
}

TEST(MetricsRegistryTest, SnapshotCapturesAllTypes) {
  MetricsRegistry reg;
  reg.CounterAt("c").Increment(5);
  reg.GaugeAt("g").Set(-2);
  reg.HistogramAt("h").Observe(10);
  reg.HistogramAt("h").Observe(20);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.Value("c"), 5);
  EXPECT_EQ(snap.Value("g"), -2);
  const MetricSample* h = snap.Find("h", {});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->type, MetricType::kHistogram);
  EXPECT_EQ(h->histogram.count, 2u);
  EXPECT_DOUBLE_EQ(h->histogram.sum, 30);
}

TEST(MetricsRegistryTest, SumOfAddsEverySeries) {
  MetricsRegistry reg;
  reg.CounterAt("ops", {{"kind", "a"}}).Increment(3);
  reg.CounterAt("ops", {{"kind", "b"}}).Increment(4);
  reg.HistogramAt("other").Observe(100);  // histograms excluded from SumOf
  EXPECT_DOUBLE_EQ(reg.Snapshot().SumOf("ops"), 7);
}

TEST(PrometheusExportTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.CounterAt("pathix_ops_total", {{"kind", "query"}}).Increment(12);
  reg.GaugeAt("pathix_live").Set(3);
  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE pathix_live gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pathix_live 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pathix_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("pathix_ops_total{kind=\"query\"} 12\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, OneTypeLinePerFamily) {
  MetricsRegistry reg;
  reg.CounterAt("ops", {{"kind", "a"}}).Increment();
  reg.CounterAt("ops", {{"kind", "b"}}).Increment();
  const std::string text = ToPrometheusText(reg.Snapshot());
  const std::string type_line = "# TYPE ops counter\n";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
}

TEST(PrometheusExportTest, SanitizesNamesAndEscapesLabelValues) {
  MetricsRegistry reg;
  reg.CounterAt("2bad-name.metric", {{"path", "a\"b\\c\nd"}}).Increment();
  const std::string text = ToPrometheusText(reg.Snapshot());
  // Leading digit and punctuation become '_'; the label value is escaped.
  EXPECT_NE(text.find("_bad_name_metric{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, HistogramExposition) {
  MetricsRegistry reg;
  Histogram& h = reg.HistogramAt("lat", {{"kind", "q"}});
  h.Observe(0.5);  // bucket 0 (le="1")
  h.Observe(0.5);
  h.Observe(3);    // le="3.25"
  h.Observe(2e12); // past 2^40: saturation, only counted in +Inf
  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{kind=\"q\",le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{kind=\"q\",le=\"3.25\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_bucket{kind=\"q\",le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_count{kind=\"q\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum{kind=\"q\"} 2000000000004\n"),
            std::string::npos);
}

TEST(JsonExportTest, SnapshotRendersAndNests) {
  MetricsRegistry reg;
  reg.CounterAt("c", {{"k", "v"}}).Increment(2);
  reg.HistogramAt("h").Observe(5);
  JsonWriter w;
  WriteMetricsJson(&w, reg.Snapshot());
  const std::string json = w.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(
      json.find(
          R"({"name":"c","type":"counter","labels":{"k":"v"},"value":2})"),
      std::string::npos);
  EXPECT_NE(json.find(R"("name":"h","type":"histogram","count":1,"sum":5)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("buckets":[{"le":)"), std::string::npos);
}


TEST(DeltaSinceTest, HistogramWindowSubtractsBucketwise) {
  Histogram h;
  h.Observe(10);
  h.Observe(100);
  const HistogramData before = h.Snapshot();
  h.Observe(1000);
  h.Observe(1000);
  h.Observe(3);
  const HistogramData delta = h.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.count, 3u);
  EXPECT_DOUBLE_EQ(delta.sum, 2003);
  // The window holds {3, 1000, 1000}: p50 brackets 1000's bucket, and the
  // earlier observations (10, 100) are gone from every rank.
  EXPECT_LT(delta.Percentile(0.01), 10);
  EXPECT_GE(delta.Percentile(0.50), 1000);
  EXPECT_LE(delta.Percentile(0.50),
            HistogramBuckets::UpperBound(HistogramBuckets::BucketFor(1000)));
  // min/max degrade to bucket bounds, capped by the all-time exact max.
  EXPECT_LE(delta.min, 3);
  EXPECT_LE(delta.max, h.Max());
  EXPECT_GE(delta.max, 1000);
}

TEST(DeltaSinceTest, EmptyWindowIsEmptyData) {
  Histogram h;
  h.Observe(5);
  const HistogramData snap = h.Snapshot();
  const HistogramData delta = snap.DeltaSince(snap);
  EXPECT_EQ(delta.count, 0u);
  EXPECT_DOUBLE_EQ(delta.Percentile(0.5), 0);
  // Against a never-observed baseline the whole history is the window.
  const HistogramData all = snap.DeltaSince(HistogramData{});
  EXPECT_EQ(all.count, 1u);
  EXPECT_DOUBLE_EQ(all.sum, 5);
}

TEST(DeltaSinceTest, SnapshotCountersSubtractGaugesStay) {
  MetricsRegistry reg;
  reg.CounterAt("ops").Increment(10);
  reg.GaugeAt("depth").Set(4);
  reg.HistogramAt("lat").Observe(50);
  const MetricsSnapshot before = reg.Snapshot();

  reg.CounterAt("ops").Increment(7);
  reg.GaugeAt("depth").Set(9);
  reg.HistogramAt("lat").Observe(70);
  reg.CounterAt("fresh").Increment(2);  // absent from the baseline
  const MetricsSnapshot delta = reg.Snapshot().DeltaSince(before);

  EXPECT_DOUBLE_EQ(delta.Value("ops"), 7);
  EXPECT_DOUBLE_EQ(delta.Value("depth"), 9);  // point-in-time, not a delta
  EXPECT_DOUBLE_EQ(delta.Value("fresh"), 2);  // taken whole
  const MetricSample* lat = delta.Find("lat", {});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, 1u);
  EXPECT_DOUBLE_EQ(lat->histogram.sum, 70);
}

TEST(PagerExportTest, MirrorsBufferHitsPerOpAndPath) {
  // Regression: ExportMetrics used to mirror buffer_hits only globally —
  // the per-op-kind and per-path series omitted the hits field, so
  // buffered runs under-reported per-path traffic in Prometheus/JSON.
  Pager pager(4096);
  pager.EnableBuffer(4);
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kQuery, "people");
    pager.NoteRead(1);   // miss
    pager.NoteRead(1);   // hit
    pager.NoteRead(1);   // hit
    pager.NoteWrite(2);  // absorbed into the dirty frame
  }
  MetricsRegistry reg;
  pager.ExportMetrics(&reg);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_buffer_hits_total"), 2);
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_pages_total",
                              {{"op", "query"}, {"io", "hit"}}),
                   2);
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_pages_total",
                              {{"op", "query"}, {"io", "read"}}),
                   1);
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_path_pages_total",
                              {{"path", "people"}, {"io", "hit"}}),
                   2);
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_path_pages_total",
                              {{"path", "people"}, {"io", "read"}}),
                   1);
  // The absorbed write is not charged anywhere yet (write-back).
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_pages_total",
                              {{"op", "query"}, {"io", "write"}}),
                   0);
  EXPECT_DOUBLE_EQ(snap.Value("pathix_pager_io_total", {{"io", "write"}}), 0);

  // Disabling flushes the pool: the dirty frame surfaces as a write-back
  // and every resident frame as an eviction; re-export converges.
  pager.EnableBuffer(0);
  pager.ExportMetrics(&reg);
  const MetricsSnapshot after = reg.Snapshot();
  EXPECT_DOUBLE_EQ(after.Value("pathix_pager_buffer_writebacks_total"), 1);
  EXPECT_DOUBLE_EQ(after.Value("pathix_pager_buffer_evictions_total"), 2);
  EXPECT_DOUBLE_EQ(after.Value("pathix_pager_io_total", {{"io", "write"}}),
                   1);
}

}  // namespace
}  // namespace pathix::obs
