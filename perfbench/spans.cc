#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "obs/json_writer.h"

namespace perfbench {

std::uint64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

OpSpans*& CurrentOpSpans() {
  thread_local OpSpans* current = nullptr;
  return current;
}

std::vector<EngineSpan> MergeEngineSpans(
    const std::vector<pathix::obs::TraceEvent>& events,
    const std::vector<SpanBuffer>& buffers, std::int64_t offset_ns) {
  std::map<int, int> client_of;
  for (std::size_t c = 0; c < buffers.size(); ++c) {
    for (int tid : buffers[c].tracer_tids) client_of[tid] = static_cast<int>(c);
  }
  const auto to_ns = [&](std::uint64_t ts_us) {
    const std::int64_t ns = static_cast<std::int64_t>(ts_us) * 1000 + offset_ns;
    return static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  };

  std::vector<EngineSpan> spans;
  std::map<int, std::vector<std::size_t>> open;  // per tid: stack of spans
  for (const pathix::obs::TraceEvent& ev : events) {
    const auto client = client_of.find(ev.tid);
    if (client == client_of.end()) continue;
    std::vector<std::size_t>& stack = open[ev.tid];
    if (ev.phase == 'B') {
      EngineSpan s;
      s.name = ev.name;
      s.start_ns = to_ns(ev.ts_us);
      s.client = client->second;
      stack.push_back(spans.size());
      spans.push_back(std::move(s));
    } else if (!stack.empty()) {
      spans[stack.back()].end_ns = to_ns(ev.ts_us);
      stack.pop_back();
    }
  }
  // Spans still open (none after a joined run) are dropped.
  std::erase_if(spans, [](const EngineSpan& s) { return s.end_ns == 0; });

  for (EngineSpan& s : spans) {
    const std::vector<OpSpans>& ops =
        buffers[static_cast<std::size_t>(s.client)].ops;
    const std::uint64_t mid = s.start_ns + (s.end_ns - s.start_ns) / 2;
    // The last op that started at or before the span's midpoint.
    const auto it = std::upper_bound(
        ops.begin(), ops.end(), mid,
        [](std::uint64_t t, const OpSpans& o) { return t < o.start_ns; });
    if (it == ops.begin()) continue;
    const OpSpans& op = *(it - 1);
    if (mid <= op.start_ns + op.op_ns) s.op = (it - 1) - ops.begin();
  }
  return spans;
}

SpanSummary Summarize(const std::vector<SpanBuffer>& buffers,
                      const std::vector<EngineSpan>& engine) {
  SpanSummary out;
  std::set<std::pair<int, std::int64_t>> ops_with_engine_spans;
  for (const EngineSpan& s : engine) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.op >= 0) ops_with_engine_spans.insert({s.client, s.op});
    if (s.name == "joint_drift_check") {
      ++out.drift_checks;
      out.drift_check_total_us += us;
    } else if (s.name == "part_build") {
      out.part_build_total_us += us;
    }
  }
  for (std::size_t c = 0; c < buffers.size(); ++c) {
    const std::vector<OpSpans>& ops = buffers[c].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpSpans& o = ops[i];
      out.op_total_ns += o.op_ns;
      out.observer_total_ns += o.obs_ns;
      const double self_us = static_cast<double>(o.exec_ns - o.obs_ns) / 1e3;
      if (o.kind == OpKind::kQuery) {
        out.query_self_us.push_back(self_us);
      } else {
        out.update_self_us.push_back(self_us);
      }
      if (o.obs_ns > 0 &&
          ops_with_engine_spans.count(
              {static_cast<int>(c), static_cast<std::int64_t>(i)}) == 0) {
        out.notify_us.push_back(static_cast<double>(o.obs_ns) / 1e3);
      }
    }
  }
  return out;
}

namespace {

const char* ExecName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "exec.query";
    case OpKind::kInsert:
      return "exec.insert";
    case OpKind::kDelete:
      return "exec.delete";
  }
  return "exec";
}

void Emit(std::FILE* f, bool* first, std::string_view name,
          std::uint64_t start_ns, std::uint64_t dur_ns, int tid,
          const std::string& request) {
  pathix::obs::JsonWriter w;
  w.BeginObject()
      .Key("name").Value(name)
      .Key("cat").Value("perfbench")
      .Key("ph").Value("X")
      .Key("ts").Value(static_cast<double>(start_ns) / 1e3)
      .Key("dur").Value(static_cast<double>(dur_ns) / 1e3)
      .Key("pid").Value(1)
      .Key("tid").Value(tid)
      .Key("args").BeginObject().Key("request").Value(request).EndObject()
      .EndObject();
  std::fputs(*first ? "\n" : ",\n", f);
  std::fputs(w.str().c_str(), f);
  *first = false;
}

}  // namespace

bool WriteTraceEventJson(const std::string& path,
                         const std::vector<SpanBuffer>& buffers,
                         const std::vector<EngineSpan>& engine,
                         std::size_t sample_every) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::set<std::pair<int, std::int64_t>> keep;
  for (const EngineSpan& s : engine) {
    if (s.op >= 0) keep.insert({s.client, s.op});
  }
  const auto request = [](std::size_t client, std::int64_t op) {
    return std::to_string(client) + ":" + std::to_string(op);
  };
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t c = 0; c < buffers.size(); ++c) {
    const int tid = static_cast<int>(c);
    const std::vector<OpSpans>& ops = buffers[c].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto index = static_cast<std::int64_t>(i);
      if (i % sample_every != 0 && keep.count({tid, index}) == 0) continue;
      const OpSpans& o = ops[i];
      const std::string req = request(c, index);
      Emit(f, &first, "client.op", o.start_ns, o.op_ns, tid, req);
      Emit(f, &first, ExecName(o.kind), o.start_ns + o.exec_off_ns, o.exec_ns,
           tid, req);
      if (o.obs_ns > 0) {
        Emit(f, &first, "online.on_operation", o.start_ns + o.obs_off_ns,
             o.obs_ns, tid, req);
      }
    }
  }
  for (const EngineSpan& s : engine) {
    Emit(f, &first, s.name, s.start_ns, s.end_ns - s.start_ns, s.client,
         s.op >= 0 ? request(static_cast<std::size_t>(s.client), s.op)
                   : std::string("-"));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
