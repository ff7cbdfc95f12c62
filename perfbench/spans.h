#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "streams.h"

/// \file spans.h
/// \brief The traced run's span buffers.
///
/// Each client thread owns one SpanBuffer and appends to it without any
/// lock: one OpSpans record per operation holds its whole span chain —
/// the root `client.op` (request id = client, index), its child
/// `exec.query` / `exec.insert` / `exec.delete` around the public call, and
/// that call's child `online.on_operation` around the controller's
/// observer callback. The engine's own spans (`joint_drift_check`,
/// `joint_re_solve`, `joint_reconfigure`, `part_build`, from the process
/// tracer, which only records on drift checks) are merged in after the
/// run and nested under the operation whose interval contains them. Self
/// time is a span's duration minus the time its children cover.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the benchmark's clock (steady clock, process epoch).
std::uint64_t NowNs();

/// One operation's span chain, offsets relative to the op's start.
struct OpSpans {
  std::uint64_t start_ns = 0;  ///< client.op begin
  std::uint32_t op_ns = 0;     ///< client.op duration
  std::uint32_t exec_off_ns = 0;
  std::uint32_t exec_ns = 0;
  std::uint32_t obs_off_ns = 0;
  std::uint32_t obs_ns = 0;  ///< 0 when the observer did not fire
  OpKind kind = OpKind::kQuery;
};

/// A client's spans, plus the ids its threads (one per window slice) had
/// on the process tracer.
struct SpanBuffer {
  std::vector<int> tracer_tids;
  std::vector<OpSpans> ops;
};

/// The span the calling thread's forwarding observer fills in (null
/// outside a traced operation).
OpSpans*& CurrentOpSpans();

/// One engine span from the process tracer, on the benchmark's clock.
struct EngineSpan {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int client = -1;
  std::int64_t op = -1;  ///< index of the enclosing op in that client's buffer
};

/// Pairs the tracer's begin/end events into spans, keeps those recorded
/// on client threads, converts them to the benchmark's clock (\p offset_ns
/// = benchmark ns minus tracer us * 1000) and nests each under the client
/// op containing it.
std::vector<EngineSpan> MergeEngineSpans(
    const std::vector<pathix::obs::TraceEvent>& events,
    const std::vector<SpanBuffer>& buffers, std::int64_t offset_ns);

/// Per-layer numbers derived from the spans.
struct SpanSummary {
  std::vector<double> query_self_us;   ///< exec.query self time, per op
  std::vector<double> update_self_us;  ///< exec.insert/delete self time
  std::vector<double> notify_us;  ///< on_operation, ops that ran no check
  double op_total_ns = 0;         ///< sum of client.op durations
  double observer_total_ns = 0;   ///< sum of online.on_operation durations
  std::uint64_t drift_checks = 0;
  double drift_check_total_us = 0;
  double part_build_total_us = 0;
};

SpanSummary Summarize(const std::vector<SpanBuffer>& buffers,
                      const std::vector<EngineSpan>& engine);

/// Writes the spans as Trace Event JSON ("X" events; tid = client). Every
/// \p sample_every-th op of each client is written, plus every op that
/// encloses an engine span. False when the file cannot be written.
bool WriteTraceEventJson(const std::string& path,
                         const std::vector<SpanBuffer>& buffers,
                         const std::vector<EngineSpan>& engine,
                         std::size_t sample_every);

/// The \p q quantile of \p values (sorted in place; 0 when empty).
double Quantile(std::vector<double>& values, double q);

}  // namespace perfbench
