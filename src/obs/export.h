#pragma once

#include <string>

/// \file export.h
/// \brief Exporters over MetricsSnapshot: Prometheus text exposition format
/// and a structured JSON snapshot.
///
/// Both exporters consume MetricsSnapshot (not a live registry), so the
/// same code path serves a running process and a snapshot captured earlier
/// (JointExperimentReport keeps the online run's snapshot; pathix_online
/// exports it after the replays finish).
///
/// Naming scheme (see README "Observability"): pathix_<component>_<what>,
/// with Prometheus conventions — monotone series end in _total, histograms
/// expand to _bucket{le=...}/_sum/_count, labels identify the series within
/// a family (path="people", kind="query", io="read", ...).

namespace pathix::obs {

class JsonWriter;
struct MetricsSnapshot;

/// Renders \p snapshot in the Prometheus text exposition format (version
/// 0.0.4): one "# TYPE" line per family, then each series. Metric and label
/// names are sanitized to [a-zA-Z0-9_:] / [a-zA-Z0-9_]; label values are
/// escaped per the format (backslash, quote, newline). Histograms emit
/// cumulative _bucket lines for non-empty buckets plus the mandatory
/// le="+Inf" bucket, and _sum/_count.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Writes \p snapshot as a JSON array of samples on \p w: each entry has
/// name/labels/type plus value (counter, gauge) or count/sum/min/max/
/// p50/p90/p99 and the non-empty buckets (histogram).
void WriteMetricsJson(JsonWriter* w, const MetricsSnapshot& snapshot);

}  // namespace pathix::obs
