// pathix_serve: the concurrent serving engine on a live simulated database.
//
// Feed it a trace spec (src/io/spec_parser.h) and a worker count; the serve
// driver replays each phase's operation mix from N threads against one
// SimDatabase while the online reconfiguration controller — under the
// spec's candidate organizations and storage budget — adapts the index
// configuration mid-stream: queries keep serving across every epoch swap.
//
//   $ ./examples/pathix_serve --threads=8 ../examples/specs/vehicle_joint_trace.pix
//   $ ./examples/pathix_serve                # embedded demo trace, 1 thread
//
// With --threads=1 and --buffer-pages=0 (the defaults) the op sequence is
// the deterministic replay pathix_online's online run serves (see
// serve/serve_driver.h for the determinism contract).
//
// --buffer-pages=N serves through a real buffer pool of N frames (CLOCK
// eviction, pinned descent paths, dirty write-back), enabled after
// population so serving starts cold. The final `pager:` line reports the
// honest accounting — every read touch is exactly one charged read or one
// buffer hit, so across runs hits + reads equals the unbuffered read count
// (the invariant scripts/obs_smoke.py asserts).
//
// Per phase the rollup reports serving-side throughput and tail latency
// (ops/sec, p50/p99 from the merged per-thread histograms) alongside the
// cost-model side: measured pages, the controller's modeled transition
// charges, and how many configuration epochs were swapped under load.
//
// Exit status: 0 when every phase's merged tallies account for every
// sampled op (executed + deterministic no-ops == ops) — the no-lost-ops
// invariant — and the controller stayed healthy; 1 otherwise, and 1
// before populating for a spec a replay cannot run (CheckReplayableSpec
// in online/trace.h: NX/PX candidates, matching_keys other than 1).

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "serve/serve_driver.h"

namespace {

// Embedded demo: the document-store drift trace, small enough to serve in
// seconds at any thread count.
constexpr const char* kDemoSpec = R"(
class Submission 80000 8000 1
class Forum      400 400 1

ref Submission forum Forum
attr Forum name string

path Submission forum name
orgs MX MIX NIX NONE

populate Submission 3000 0 1.0
populate Forum      60 60 1.0
trace_seed 11

phase search 6000
mix Submission 0.95 0.03 0.02

phase ingest 6000
mix Submission 0.02 0.6 0.38

phase search2 6000
mix Submission 0.95 0.03 0.02
)";

std::uint64_t ExecutedOps(const pathix::PhaseReport& p) {
  std::uint64_t executed = p.insert_ops + p.delete_ops + p.noop_ops;
  for (const auto& [id, n] : p.query_ops) executed += n;
  for (const auto& [id, n] : p.naive_query_ops) executed += n;
  return executed;
}

void PrintPhase(const pathix::ServePhaseReport& r) {
  std::printf("  %-10s %8llu %8.0f %8.0f %8.0f %10llu %10.0f %6llu %4d\n",
              r.phase.name.c_str(),
              static_cast<unsigned long long>(r.phase.ops), r.ops_per_sec,
              r.latency_us.Percentile(0.50), r.latency_us.Percentile(0.99),
              static_cast<unsigned long long>(r.phase.pages),
              r.phase.transition_pages,
              static_cast<unsigned long long>(r.epoch_swaps),
              r.phase.reconfigurations);
}

int Serve(const pathix::TraceSpec& s, int threads, std::size_t buffer_pages) {
  using namespace pathix;
  SimDatabase db(s.schema, s.catalog.params());
  ServeDriver driver(&db, s, ServeOptions{threads});
  driver.Populate();
  if (buffer_pages > 0) db.pager().EnableBuffer(buffer_pages);
  JointReconfigurationController controller(&db, ControllerOptionsFor(s));
  db.SetObserver(&controller);

  std::printf("serving %zu path(s) from %d worker thread(s)\n\n",
              s.paths.size(), threads);
  std::printf("  %-10s %8s %8s %8s %8s %10s %10s %6s %4s\n", "phase", "ops",
              "ops/sec", "p50us", "p99us", "pages", "modeled_tr", "epochs",
              "rcfg");

  bool ok = true;
  double total_ops = 0;
  double total_wall = 0;
  std::uint64_t total_pages = 0;
  std::uint64_t total_epochs = 0;
  obs::HistogramData all_latency;
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const ServePhaseReport r = driver.RunPhase(i, &controller);
    PrintPhase(r);
    total_ops += static_cast<double>(r.phase.ops);
    total_wall += r.wall_seconds;
    total_pages += r.phase.pages;
    total_epochs += r.epoch_swaps;
    all_latency.MergeFrom(r.latency_us);
    // The no-lost-ops invariant: every sampled op is accounted for, either
    // as an executed op or as the deterministic no-op.
    if (ExecutedOps(r.phase) != r.phase.ops) {
      std::fprintf(stderr,
                   "phase %s LOST OPS: %llu sampled, %llu accounted\n",
                   r.phase.name.c_str(),
                   static_cast<unsigned long long>(r.phase.ops),
                   static_cast<unsigned long long>(ExecutedOps(r.phase)));
      ok = false;
    }
  }
  db.SetObserver(nullptr);
  if (!controller.status().ok()) {
    std::cerr << "controller error: " << controller.status().ToString()
              << "\n";
    return 1;
  }

  std::printf("\n  total: %.0f ops in %.2fs (%.0f ops/sec) | p50=%.0fus "
              "p99=%.0fus | %llu pages | %llu epoch swaps\n",
              total_ops, total_wall,
              total_wall > 0 ? total_ops / total_wall : 0,
              all_latency.Percentile(0.50), all_latency.Percentile(0.99),
              static_cast<unsigned long long>(total_pages),
              static_cast<unsigned long long>(total_epochs));
  // Machine-parseable accounting line (scripts/obs_smoke.py greps it):
  // cumulative pager counters since construction, plus the pool's view.
  const AccessStats pstats = db.pager().stats();
  const BufferPoolStats bstats = db.pager().buffer_pool().GetStats();
  std::printf("  pager: reads=%llu writes=%llu buffer_hits=%llu "
              "evictions=%llu writebacks=%llu buffer_pages=%zu\n",
              static_cast<unsigned long long>(pstats.reads),
              static_cast<unsigned long long>(pstats.writes),
              static_cast<unsigned long long>(pstats.buffer_hits),
              static_cast<unsigned long long>(bstats.evictions),
              static_cast<unsigned long long>(bstats.writebacks),
              db.pager().buffer_pool().capacity());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pathix;

  int threads = 1;
  std::size_t buffer_pages = 0;
  std::string spec_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::string(prefix).size();
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // A number flag's whole value must parse, in range for its type.
    const auto parse_number = [&](const char* value, auto* out) {
      const char* end = arg.data() + arg.size();
      const auto [ptr, ec] = std::from_chars(value, end, *out);
      return ec == std::errc() && ptr == end;
    };
    if (const char* value = flag_value("--threads=")) {
      if (!parse_number(value, &threads) || threads < 1) {
        std::cerr << "error: --threads wants a positive integer\n";
        return 1;
      }
    } else if (const char* pages = flag_value("--buffer-pages=")) {
      if (!parse_number(pages, &buffer_pages)) {
        std::cerr << "error: --buffer-pages wants a non-negative integer\n";
        return 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown flag " << arg
                << " (known: --threads=N, --buffer-pages=N)\n";
      return 1;
    } else if (spec_file.empty()) {
      spec_file = arg;
    } else {
      std::cerr << "error: more than one spec file given (" << spec_file
                << ", " << arg << ")\n";
      return 1;
    }
  }

  Result<TraceSpec> spec = !spec_file.empty() ? ParseTraceSpecFile(spec_file)
                                              : ParseTraceSpec(kDemoSpec);
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status().ToString() << "\n";
    return 1;
  }
  const TraceSpec& s = spec.value();
  // Reject what a replay cannot run before populating anything.
  if (const Status replayable = CheckReplayableSpec(s); !replayable.ok()) {
    std::cerr << "error: " << replayable.ToString() << "\n";
    return 1;
  }
  if (spec_file.empty()) {
    std::cout << "(no spec file given; using the embedded demo — pass a "
                 "trace .pix file, e.g. examples/specs/"
                 "vehicle_drift_trace.pix)\n\n";
  }
  return Serve(s, threads, buffer_pages);
}
