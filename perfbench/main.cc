// pathix_perfbench: the serving benchmark of PathIx.
//
// Populates the two-path vehicle registry of the paper's Figure 1 (at 10x
// bench_serve_scale's population), attaches the joint online controller,
// and drives SimDatabase's public op API (QueryAny, Insert, Delete) from
// the benchmark's own seeded closed-loop clients, whose op streams are
// generated before the timed window (streams.h). After the window it
// checks the answers and prints every metric by name and unit; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
//
//   pathix_perfbench --workload lookup|lookup_cached|churn_drift
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics on an untraced run. --trace 1
// runs the window twice on fresh databases, untraced and then traced, and
// prints the per-layer metrics of the traced one (spans.h) plus the
// tracing overhead between the two. Exit 1 on a failed correctness gate
// (the result line still prints, with "correct": false), 2 on bad
// arguments or a setup failure.
//
// README.md next to this file explains every workload and metric.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "latency.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "online/joint_controller.h"
#include "spans.h"
#include "streams.h"

namespace {

using namespace pathix;
using perfbench::ClientStream;
using perfbench::LatencyHistogram;
using perfbench::LiveMap;
using perfbench::NowNs;
using perfbench::Op;
using perfbench::OpKind;
using perfbench::OpSpans;
using perfbench::SpanBuffer;
using perfbench::StreamSegment;

// The vehicle registry of examples/specs/vehicle_joint_trace.pix and
// bench_serve_scale at 10x bench_serve_scale's population. `read_heavy` is
// bench_serve_scale's phase of that name; `registry`, `ingest` and `audit`
// are vehicle_joint_trace.pix's. No budget line: churn_drift sets its
// budget and organizations on the controller (kChurnBudgetBytes,
// kChurnOrgs); the lookups run unbudgeted over the spec's orgs, like
// bench_serve_scale.
constexpr const char* kSpec = R"(
class Person            20000 8000 1 64
class Vehicle           3000  2500 3 64
class Bus     : Vehicle 1500  1400 2 64
class Truck   : Vehicle 1500  1400 2 64
class Company           400   400  3 64
class Division          400   400  1 64

ref Person  owns Vehicle  multi
ref Vehicle man  Company  multi
ref Company divs Division multi
attr Division name string

path people Person owns man divs name
load Person   0.3  0.1  0.1
load Division 0.2  0.2  0.1

path fleet Vehicle man divs name
load Vehicle  0.3  0.0  0.1
load Division 0.2  0.1  0.1

orgs MX MIX NIX NONE

populate Person   20000 0   1.0
populate Vehicle  3000  0   2.0
populate Bus      1500  0   2.0
populate Truck    1500  0   2.0
populate Company  400   0   3.0
populate Division 400   400 1.0

phase read_heavy 1
mix people Person   0.55 0.01 0.01
mix fleet  Vehicle  0.25 0.0  0.0
mix fleet  Division 0.18 0.0  0.0

phase registry 1
mix people Person   0.82 0.03 0.03
mix fleet  Vehicle  0.06 0.0  0.0
mix people Division 0.06 0.0  0.0

phase ingest 1
mix people Person  0.02 0.52 0.38
mix fleet  Vehicle 0.0  0.05 0.03

phase audit 1
mix fleet  Company  0.42 0.01 0.01
mix fleet  Division 0.46 0.02 0.02
mix people Person   0.0  0.03 0.03
)";

/// churn_drift's storage budget. It binds at this population: unbudgeted,
/// the controller installs a whole-path NIX on each path; under it, split
/// configurations.
constexpr double kChurnBudgetBytes = 1.5e6;
/// churn_drift's candidate organizations: ControllerOptions' default set,
/// without NONE. With NONE the budgeted solve drops Person.owns in `audit`,
/// and `registry` then pays a 35 ms Person scan per query until the next
/// drift check, so one check interval of lag halved or doubled a run's
/// throughput: the timings measured where a check landed, not the engine.
const std::vector<IndexOrg> kChurnOrgs = {IndexOrg::kMX, IndexOrg::kMIX,
                                          IndexOrg::kNIX};
/// Ops of one churn_drift phase; a drift cycle runs each phase once.
constexpr std::uint64_t kChurnPhaseOps = 3000;
/// The lookups' windows are time-bounded; their streams are sized by this
/// upper bound on the per-client rate (about 3.5x today's on a 4-core x86
/// container). A client that still runs out before the deadline fails the
/// correctness gate.
constexpr double kLookupMaxOpsPerSec = 300000;
/// churn_drift's window is a whole number of drift cycles, sized from
/// --seconds at this nominal rate (about its single-client rate on a
/// 4-core x86 container), so same-seed runs do identical work and every
/// count repeats.
constexpr double kChurnNominalOpsPerSec = 30000;
/// Setup: at most this many ops of the workload's mix until the first
/// install (the controller installs at its first check, op 256, today;
/// every op before it is a naive scan); lookup_cached then prefills its
/// pool with kPrefillOps more.
constexpr std::uint64_t kSetupMaxOps = 2048;
constexpr std::uint64_t kPrefillOps = 20000;
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The lookups' window is this many equal time slices, each on fresh
/// client threads; throughput is the median over the slices.
constexpr std::size_t kLookupSlices = 20;
/// A p99 is taken per group of slices and reported as the median over the
/// groups. A lookup group is this many slices, so its p99 rests on a few
/// hundred update samples beyond it; a churn_drift group is one drift
/// cycle. A host stall, or one cycle whose seed-drawn victims cost more
/// page I/O, then moves one group's tail and not the figure. A p50 pools
/// the whole window: a median is not moved by one bad group.
constexpr std::size_t kLookupSlicesPerGroup = 4;
/// The population is the same database for every seed (the seed varies
/// the traffic), so index shapes, and with them page counts, do not jump
/// between seeds.
constexpr std::uint32_t kPopulationSeed = 1994;
/// Queries of the window re-checked against the naive evaluator.
constexpr int kGateSamples = 64;
/// Every Nth op of a client goes into the written trace file.
constexpr std::size_t kTraceSampleEvery = 64;

enum class PoolMode { kOff, kAll, kEighth };

struct Workload {
  const char* name;
  int max_clients;
  /// The first is the set-up mix; window cycles run the rest, then it.
  std::vector<const char*> phases;
  std::uint64_t phase_ops;          ///< 0: one phase, sized by time
  bool churn;  ///< kChurnBudgetBytes and kChurnOrgs on the controller
  PoolMode pool;
};

/// Streams track only their own deletions, so a workload with several
/// clients must not delete a class that inserts reference (read_heavy
/// deletes only Person, which nothing references).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lookup", 4, {"read_heavy"}, 0, false, PoolMode::kOff},
      {"lookup_cached", 4, {"read_heavy"}, 0, false, PoolMode::kAll},
      {"churn_drift",
       1,
       {"registry", "ingest", "audit"},
       kChurnPhaseOps,
       true,
       PoolMode::kEighth},
  };
  return kWorkloads;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// The CPUs this process may run on (`nproc` of them).
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread to \p cpu (best effort).
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Everything one run shares: the parsed spec, the workload, its inputs.
struct Bench {
  TraceSpec spec;
  const Workload* workload = nullptr;
  Options options;
  int clients = 1;
  std::vector<int> cpus;  ///< AllowedCpus()
  std::vector<const TracePhase*> phases;
  /// keys[p][i]: the i-th ending value of path p, built once.
  std::vector<std::vector<Key>> keys;
  ControllerOptions controller_options;

  std::uint64_t cycle_ops() const {
    return workload->phase_ops * phases.size();
  }
};

/// A database after set-up, with its controller attached.
struct Served {
  std::unique_ptr<SimDatabase> db;
  std::unique_ptr<JointReconfigurationController> controller;
  std::size_t pool_pages = 0;
  std::uint64_t setup_ops = 0;
  double setup_s = 0;
};

/// What one op did.
struct Outcome {
  bool ok = false;
  bool noop = false;
  bool naive = false;
  std::size_t oids = 0;
};

/// Cumulative counts of one client over the window.
struct ClientTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t noops = 0;
  std::uint64_t queries = 0;
  std::uint64_t naive = 0;
  std::uint64_t oids = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;

  ClientTally& operator+=(const ClientTally& o) {
    attempted += o.attempted;
    failed += o.failed;
    noops += o.noops;
    queries += o.queries;
    naive += o.naive;
    oids += o.oids;
    inserts += o.inserts;
    deletes += o.deletes;
    return *this;
  }
};

/// One closed-loop client: its stream, how far it got, what it saw.
struct Client {
  ClientStream stream;
  /// The oid each of the stream's insert slots received.
  std::vector<Oid> inserted;
  std::size_t next = 0;  ///< ops of the stream consumed so far
  ClientTally tally;
  /// Latencies of succeeded ops, one histogram per group of slices.
  std::vector<LatencyHistogram> query_ns, update_ns;
  SpanBuffer spans;

  explicit Client(ClientStream s)
      : stream(std::move(s)), inserted(stream.inserts.size(), kInvalidOid) {}

  /// Executes the stream's next op through the public API.
  Outcome Step(const Bench& b, SimDatabase& db) {
    const Op& op = stream.ops[next++];
    Outcome out;
    const auto cls = static_cast<ClassId>(op.cls);
    switch (op.kind) {
      case OpKind::kQuery: {
        const Result<SimDatabase::QueryOutcome> r = db.QueryAny(
            b.spec.paths[op.path].id, b.keys[op.path][op.arg], cls);
        out.ok = r.ok();
        if (out.ok) {
          out.naive = r.value().naive;
          out.oids = r.value().oids.size();
        }
        break;
      }
      case OpKind::kInsert: {
        const Oid oid = db.Insert(cls, std::move(stream.inserts[op.arg]));
        inserted[op.arg] = oid;
        out.ok = oid != kInvalidOid;
        break;
      }
      case OpKind::kDelete: {
        if (op.arg == perfbench::kNoVictim) {
          out.noop = true;
          break;
        }
        const std::uint64_t victim = stream.victims[op.arg];
        const Oid oid = (victim & perfbench::kInsertSlotBit) != 0
                            ? inserted[victim & ~perfbench::kInsertSlotBit]
                            : victim;
        out.ok = oid != kInvalidOid && db.Delete(oid).ok();
        break;
      }
    }
    return out;
  }
};

/// The window's segments for one client: one stationary stretch (the
/// lookups), or whole drift cycles. Time-bounded windows stop at the
/// deadline; the stream just has to be long enough.
std::vector<StreamSegment> WindowSegments(const Bench& b, double seconds) {
  std::vector<StreamSegment> segments;
  if (b.workload->phase_ops == 0) {
    segments.push_back({b.phases.front(),
                        static_cast<std::uint64_t>(
                            std::ceil(seconds * kLookupMaxOpsPerSec))});
    return segments;
  }
  const auto cycles = static_cast<std::uint64_t>(
      std::ceil(seconds * kChurnNominalOpsPerSec /
                static_cast<double>(b.cycle_ops())));
  // Set-up ran the first mix until the first install, so each window cycle
  // starts on the second one and ends with the first: every cycle pays the
  // controller's way back to the first mix's configuration.
  const std::size_t n = b.phases.size();
  for (std::uint64_t c = 0; c < std::max<std::uint64_t>(cycles, 1); ++c) {
    for (std::size_t i = 1; i <= n; ++i) {
      segments.push_back({b.phases[i % n], b.workload->phase_ops});
    }
  }
  return segments;
}

/// Shard 0 is the set-up stream's; clients own shards 1..clients.
std::vector<Client> MakeClients(const Bench& b, const LiveMap& live,
                                double seconds) {
  const std::vector<StreamSegment> segments = WindowSegments(b, seconds);
  const std::size_t groups = b.workload->phase_ops == 0
                                 ? kLookupSlices / kLookupSlicesPerGroup
                                 : segments.size() / b.phases.size();
  std::vector<Client> clients;
  clients.reserve(static_cast<std::size_t>(b.clients));
  for (int c = 0; c < b.clients; ++c) {
    Client& client = clients.emplace_back(perfbench::GenerateStream(
        b.spec, segments, live, c + 1, b.clients + 1, b.options.seed));
    client.query_ns.resize(groups);
    client.update_ns.resize(groups);
  }
  return clients;
}

/// One set-up: a fresh database, populated, with the controller attached;
/// the workload's first mix runs on this thread until the controller's
/// first install commits; then the pool is sized (and, for lookup_cached,
/// prefilled). \p populated receives the population. Stream generation is
/// not part of the set-up time.
Status SetUp(const Bench& b, Served* out, LiveMap* populated) {
  const std::uint64_t t0 = NowNs();
  out->db =
      std::make_unique<SimDatabase>(b.spec.schema, b.spec.catalog.params());
  SimDatabase& db = *out->db;
  std::vector<const Path*> paths;
  for (const TracePath& tp : b.spec.paths) {
    PATHIX_RETURN_IF_ERROR(db.RegisterPath(tp.id, tp.path));
    paths.push_back(&tp.path);
  }
  std::vector<ClassGenSpec> gen;
  for (const TracePopulate& p : b.spec.populate) {
    gen.push_back(ClassGenSpec{p.cls, p.count, p.distinct_values, p.nin});
  }
  *populated = PathDataGenerator(kPopulationSeed).Populate(&db, paths, gen);
  const std::uint64_t populate_ns = NowNs() - t0;

  const std::uint64_t setup_ops =
      kSetupMaxOps + (b.workload->pool == PoolMode::kAll ? kPrefillOps : 0);
  Client setup(perfbench::GenerateStream(b.spec, {{b.phases.front(), setup_ops}},
                                         *populated, 0, b.clients + 1,
                                         b.options.seed));

  const std::uint64_t t1 = NowNs();
  out->controller = std::make_unique<JointReconfigurationController>(
      &db, b.controller_options);
  db.SetObserver(out->controller.get());
  while (setup.next < kSetupMaxOps &&
         out->controller->events_committed() == 0) {
    setup.Step(b, db);
  }
  if (out->controller->events_committed() == 0) {
    return Status::FailedPrecondition(
        !out->controller->status().ok()
            ? out->controller->status().ToString()
            : "no index configuration installed within the set-up ops");
  }
  const std::size_t allocated = db.pager().allocated_pages();
  if (b.workload->pool == PoolMode::kAll) {
    // Every page allocated so far, plus headroom for the window's growth.
    out->pool_pages = allocated + allocated / 4;
  } else if (b.workload->pool == PoolMode::kEighth) {
    out->pool_pages = allocated / 8;
  }
  if (out->pool_pages > 0) db.pager().EnableBuffer(out->pool_pages);
  if (b.workload->pool == PoolMode::kAll) {
    for (std::uint64_t i = 0; i < kPrefillOps; ++i) setup.Step(b, db);
  }
  out->setup_ops = setup.next;
  out->setup_s = Seconds(populate_ns + (NowNs() - t1));
  return Status::OK();
}

/// Counters read at the window's edges (quiescent: no client running).
struct Counters {
  AccessStats pager;
  AccessStats query_tally, insert_tally, delete_tally;
  BufferPoolStats pool;
  obs::MetricsSnapshot metrics;
  std::uint64_t checks = 0;
  std::uint64_t events = 0;
  double transition = 0;
  double measured_transition = 0;
  std::uint64_t parts_built = 0;
  AccessStats build_io;
};

Counters Capture(Served& s) {
  Counters c;
  const Pager& pager = s.db->pager();
  c.pager = pager.stats();
  c.query_tally = pager.tally(PageOpKind::kQuery);
  c.insert_tally = pager.tally(PageOpKind::kInsert);
  c.delete_tally = pager.tally(PageOpKind::kDelete);
  c.pool = pager.buffer_pool().GetStats();
  c.metrics = s.db->SnapshotMetrics();
  c.checks = s.controller->checks_run();
  c.events = s.controller->events_committed();
  c.transition = s.controller->transition_pages_charged();
  c.measured_transition = s.controller->measured_transition_pages_charged();
  c.parts_built = s.db->registry().parts_built();
  c.build_io = s.db->registry().cumulative_build_io();
  return c;
}

/// The \p q latency percentile of all of \p groups' samples together.
double PooledPercentileUs(const std::vector<LatencyHistogram>& groups,
                          double q) {
  LatencyHistogram all;
  for (const LatencyHistogram& g : groups) all.MergeFrom(g);
  return all.PercentileUs(q);
}

/// The median over \p groups of each group's \p q latency percentile.
double MedianPercentileUs(const std::vector<LatencyHistogram>& groups,
                          double q) {
  std::vector<double> values;
  for (const LatencyHistogram& g : groups) values.push_back(g.PercentileUs(q));
  return perfbench::Quantile(values, 0.5);
}

std::uint64_t Samples(const std::vector<LatencyHistogram>& groups) {
  std::uint64_t n = 0;
  for (const LatencyHistogram& g : groups) n += g.count();
  return n;
}

/// The measured window: each slice's throughput, the counters at its
/// edges, the clients' summed tallies and their latencies per group.
struct Window {
  std::vector<double> slice_ops_per_sec;
  Counters before, after;
  ClientTally total;
  std::vector<LatencyHistogram> queries, updates;

  /// Closed-loop throughput: the median over slices.
  double OpsPerSec() const {
    std::vector<double> values = slice_ops_per_sec;
    return perfbench::Quantile(values, 0.5);
  }
};

/// Times the controller's observer callback into the op's span record.
class ForwardingObserver : public DbOpObserver {
 public:
  explicit ForwardingObserver(DbOpObserver* inner) : inner_(inner) {}

  void OnOperation(const DbOpEvent& ev) override {
    OpSpans* rec = perfbench::CurrentOpSpans();
    const std::uint64_t t0 = NowNs();
    inner_->OnOperation(ev);
    if (rec != nullptr) {
      rec->obs_off_ns = static_cast<std::uint32_t>(t0 - rec->start_ns);
      rec->obs_ns = static_cast<std::uint32_t>(NowNs() - t0);
    }
  }

 private:
  DbOpObserver* inner_;
};

/// One slice of the closed loop: every client runs its stream back to back
/// from one shared start, on a fresh thread, until \p seconds have passed
/// (0: no deadline) or it has run \p max_ops more ops. Latencies go into
/// each client's histograms of \p group. Returns the slice's throughput.
double RunSlice(Served& s, const Bench& b, std::vector<Client>& clients,
                double seconds, std::uint64_t max_ops, bool traced,
                std::size_t slice, std::size_t group) {
  const std::size_t n = clients.size();
  std::vector<std::uint64_t> end_ns(n, 0);
  std::vector<std::uint64_t> attempted(n, 0);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t deadline_ns = UINT64_MAX;

  // Client c of slice k runs on CPU (c + k) mod nproc: clients never share
  // a CPU, and over its slices a client visits every CPU alike, so a CPU
  // that a neighbour slows weighs the same in every run's medians.
  const auto client = [&](std::size_t c) {
    if (!b.cpus.empty()) PinTo(b.cpus[(c + slice) % b.cpus.size()]);
    Client& me = clients[c];
    ClientTally& t = me.tally;
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
        me.stream.ops.size() - me.next, max_ops));
    const std::size_t end = me.next + take;
    if (traced) {
      me.spans.tracer_tids.push_back(obs::Tracer::CurrentThreadId());
      me.spans.ops.reserve(me.spans.ops.size() + take);
    }
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

    while (me.next < end) {
      const std::uint64_t t0 = NowNs();
      if (t0 >= deadline_ns) break;
      const OpKind kind = me.stream.ops[me.next].kind;
      OpSpans* rec = nullptr;
      if (traced) {
        rec = &me.spans.ops.emplace_back();
        rec->start_ns = t0;
        rec->kind = kind;
        perfbench::CurrentOpSpans() = rec;
      }
      const std::uint64_t e0 = traced ? NowNs() : t0;
      const Outcome out = me.Step(b, *s.db);
      const std::uint64_t e1 = NowNs();
      ++t.attempted;
      ++attempted[c];
      if (out.noop) {
        ++t.noops;
      } else if (!out.ok) {
        ++t.failed;
      } else if (kind == OpKind::kQuery) {
        ++t.queries;
        t.naive += out.naive ? 1 : 0;
        t.oids += out.oids;
        me.query_ns[group].Record(e1 - e0);
      } else {
        ++(kind == OpKind::kInsert ? t.inserts : t.deletes);
        me.update_ns[group].Record(e1 - e0);
      }
      if (rec != nullptr) {
        perfbench::CurrentOpSpans() = nullptr;
        rec->exec_off_ns = static_cast<std::uint32_t>(e0 - t0);
        rec->exec_ns = static_cast<std::uint32_t>(e1 - e0);
        rec->op_ns = static_cast<std::uint32_t>(NowNs() - t0);
      }
    }
    end_ns[c] = NowNs();
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) threads.emplace_back(client, c);
  while (ready.load() < n) std::this_thread::yield();
  const std::uint64_t start_ns = NowNs();
  if (seconds > 0) {
    deadline_ns = start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  std::uint64_t ops = 0;
  for (std::size_t c = 0; c < n; ++c) ops += attempted[c];
  const std::uint64_t last = *std::max_element(end_ns.begin(), end_ns.end());
  return static_cast<double>(ops) / Seconds(last - start_ns);
}

/// The measured window: kLookupSlices time slices of the stationary
/// lookups, one slice per drift cycle of churn_drift. Throughput is the
/// median over slices; latency percentiles as kLookupSlicesPerGroup says.
Window Measure(Served& s, const Bench& b, std::vector<Client>& clients,
               double seconds, bool traced) {
  Window w;
  w.before = Capture(s);
  if (b.workload->phase_ops == 0) {
    for (std::size_t k = 0; k < kLookupSlices; ++k) {
      w.slice_ops_per_sec.push_back(
          RunSlice(s, b, clients, seconds / kLookupSlices, UINT64_MAX, traced,
                   k, k / kLookupSlicesPerGroup));
    }
  } else {
    for (std::size_t k = 0;
         clients.front().next < clients.front().stream.ops.size(); ++k) {
      w.slice_ops_per_sec.push_back(
          RunSlice(s, b, clients, 0, b.cycle_ops(), traced, k, k));
    }
  }
  w.after = Capture(s);
  w.queries.resize(clients.front().query_ns.size());
  w.updates.resize(clients.front().update_ns.size());
  for (const Client& c : clients) {
    w.total += c.tally;
    for (std::size_t g = 0; g < w.queries.size(); ++g) {
      w.queries[g].MergeFrom(c.query_ns[g]);
      w.updates[g].MergeFrom(c.update_ns[g]);
    }
  }
  return w;
}

/// The correctness gate, run with the observer detached:
///   1. a seeded sample of the window's queries, re-run through QueryAny
///      and QueryNaive, must agree as oid sets;
///   2. ValidateIndexes() must pass;
///   3. every attempted op is a success the database counted, a failure,
///      or a deterministic no-op;
///   4. no client of a time-bounded window ran out of pre-generated ops
///      before the deadline (its later slices would have measured nothing).
/// Returns the failures (empty = pass).
std::vector<std::string> Gate(Served& s, const Bench& b,
                              const std::vector<Client>& clients,
                              const Window& w) {
  std::vector<std::string> failures;
  SimDatabase& db = *s.db;
  db.SetObserver(nullptr);

  for (std::size_t c = 0; c < clients.size(); ++c) {
    if (b.workload->phase_ops == 0 &&
        clients[c].next == clients[c].stream.ops.size()) {
      failures.push_back("client " + std::to_string(c) +
                         " ran out of ops before the deadline; raise "
                         "kLookupMaxOpsPerSec");
    }
  }

  std::vector<const Op*> executed;
  for (const Client& c : clients) {
    for (std::size_t i = 0; i < c.next; ++i) {
      if (c.stream.ops[i].kind == OpKind::kQuery) {
        executed.push_back(&c.stream.ops[i]);
      }
    }
  }
  std::mt19937_64 rng(b.options.seed ^ 0x5EEDC0DEull);
  for (int k = 0; k < kGateSamples && !executed.empty(); ++k) {
    const Op& op = *executed[std::uniform_int_distribution<std::size_t>(
        0, executed.size() - 1)(rng)];
    const PathId& id = b.spec.paths[op.path].id;
    const Key& key = b.keys[op.path][op.arg];
    const auto cls = static_cast<ClassId>(op.cls);
    Result<SimDatabase::QueryOutcome> any = db.QueryAny(id, key, cls);
    Result<std::vector<Oid>> naive = db.QueryNaive(id, key, cls);
    if (!any.ok() || !naive.ok()) {
      failures.push_back("gate query failed on path " + id);
      continue;
    }
    std::vector<Oid> got = any.value().oids;
    std::vector<Oid> want = naive.value();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    got.erase(std::unique(got.begin(), got.end()), got.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    if (got != want) {
      failures.push_back("path " + id + " key " + key.ToString() + ": " +
                         std::to_string(got.size()) + " indexed oids vs " +
                         std::to_string(want.size()) + " naive");
    }
  }

  if (const Status valid = db.ValidateIndexes(); !valid.ok()) {
    failures.push_back("ValidateIndexes: " + valid.ToString());
  }

  const ClientTally& t = w.total;
  const auto counted = static_cast<std::uint64_t>(
      w.after.metrics.SumOf("pathix_db_ops_total") -
      w.before.metrics.SumOf("pathix_db_ops_total") + 0.5);
  if (t.attempted != counted + t.failed + t.noops) {
    failures.push_back("attempted " + std::to_string(t.attempted) +
                       " != counted " + std::to_string(counted) + " + failed " +
                       std::to_string(t.failed) + " + no-ops " +
                       std::to_string(t.noops));
  }
  if (!s.controller->status().ok()) {
    failures.push_back("controller: " + s.controller->status().ToString());
  }
  return failures;
}

double PerOp(double x, std::uint64_t ops) {
  return ops > 0 ? x / static_cast<double>(ops) : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A "VmRSS:" or "VmHWM:" line of /proc/self/status, in MB (-1 if absent).
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return -1;
}

/// Resets the process's RSS high-water mark (VmHWM) to its current RSS.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const Window& w, double setup_s,
                             double peak_rss_mb) {
  const ClientTally& t = w.total;
  const AccessStats pages = w.after.pager - w.before.pager;
  const double logical = static_cast<double>(pages.logical_total());
  const double transition = w.after.transition - w.before.transition;
  std::printf("# latency samples: query %llu, update %llu over %zu slices in "
              "%zu groups\n",
              static_cast<unsigned long long>(Samples(w.queries)),
              static_cast<unsigned long long>(Samples(w.updates)),
              w.slice_ops_per_sec.size(), w.queries.size());
  // Not bounded metrics (README.md, Steadiness): an update waits for
  // exclusive latches behind the other clients' readers, so a shared
  // host's drift moves its latency more than the throughput's. Its p50
  // spread 0.26-0.29 over ten seeds and moved 47% between two sets; its
  // p99 jumped 20x between two runs of one seed.
  std::printf("# update_p50_us %.3f update_p99_us %.3f\n",
              PooledPercentileUs(w.updates, 0.50),
              MedianPercentileUs(w.updates, 0.99));
  std::printf("# ops/sec by slice:");
  for (const double ops : w.slice_ops_per_sec) std::printf(" %.0f", ops);
  std::printf("\n");
  return {
      {"ops_per_sec", w.OpsPerSec(), "1/s"},
      {"query_p50_us", PooledPercentileUs(w.queries, 0.50), "us"},
      {"query_p99_us", MedianPercentileUs(w.queries, 0.99), "us"},
      {"pages_per_op", PerOp(logical, t.attempted), "pages/op"},
      {"io_pages_per_op",
       PerOp(static_cast<double>(pages.total()), t.attempted), "pages/op"},
      {"cost_per_op", PerOp(logical + transition, t.attempted), "pages/op"},
      {"ok_ops_ratio",
       PerOp(static_cast<double>(t.attempted - t.failed), t.attempted),
       "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(Served& s, const Window& w,
                             perfbench::SpanSummary& spans,
                             double untraced_ops_per_sec) {
  const ClientTally& t = w.total;
  const Counters& a = w.before;
  const Counters& z = w.after;
  const obs::MetricsSnapshot delta = z.metrics.DeltaSince(a.metrics);
  const obs::MetricSample* resolve = delta.Find(
      "pathix_advisor_resolve_duration_us", {{"controller", "joint"}});
  const obs::HistogramData resolves =
      resolve != nullptr ? resolve->histogram : obs::HistogramData{};
  const double checks = static_cast<double>(z.checks - a.checks);
  const AccessStats pages = z.pager - a.pager;
  const BufferPoolStats& p0 = a.pool;
  const BufferPoolStats& p1 = z.pool;
  const double kops = static_cast<double>(t.attempted) / 1000.0;
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0; };
  return {
      {"exec.query_self_us", perfbench::Quantile(spans.query_self_us, 0.5),
       "us"},
      {"exec.update_self_us", perfbench::Quantile(spans.update_self_us, 0.5),
       "us"},
      {"exec.naive_query_ratio",
       ratio(static_cast<double>(t.naive), static_cast<double>(t.queries)),
       "ratio"},
      {"exec.oids_per_query",
       ratio(static_cast<double>(t.oids), static_cast<double>(t.queries)),
       "oids"},
      {"exec.epoch_swaps", delta.Value("pathix_db_config_epochs_total"),
       "count"},
      {"online.observer_share",
       ratio(spans.observer_total_ns, spans.op_total_ns), "ratio"},
      {"online.notify_us", perfbench::Quantile(spans.notify_us, 0.5), "us"},
      {"online.drift_check_us",
       ratio(spans.drift_check_total_us,
             static_cast<double>(spans.drift_checks)),
       "us"},
      {"online.checks_per_kop", ratio(checks, kops), "count/kop"},
      {"online.reconfigurations", static_cast<double>(z.events - a.events),
       "count"},
      {"online.transition_pages_modeled", z.transition - a.transition,
       "pages"},
      {"online.transition_pages_measured",
       z.measured_transition - a.measured_transition, "pages"},
      {"advisor.resolve_us_p50", resolves.Percentile(0.50), "us"},
      {"advisor.resolve_us_p99", resolves.Percentile(0.99), "us"},
      {"advisor.nodes_explored_per_check",
       ratio(delta.SumOf("pathix_advisor_nodes_explored_total"), checks),
       "nodes"},
      {"advisor.pool_cache_hit_ratio",
       ratio(delta.Value("pathix_advisor_pool_cache_hits_total"),
             static_cast<double>(resolves.count)),
       "ratio"},
      {"index.parts_built", static_cast<double>(z.parts_built - a.parts_built),
       "count"},
      {"index.part_build_us", spans.part_build_total_us, "us"},
      {"index.build_io_pages",
       static_cast<double>((z.build_io - a.build_io).total()), "pages"},
      {"index.parts_live", static_cast<double>(s.db->registry().live_parts()),
       "count"},
      {"storage.pages_per_query",
       ratio(static_cast<double>(
                 (z.query_tally - a.query_tally).logical_total()),
             static_cast<double>(t.queries)),
       "pages"},
      {"storage.pages_per_insert",
       ratio(static_cast<double>(
                 (z.insert_tally - a.insert_tally).logical_total()),
             static_cast<double>(t.inserts)),
       "pages"},
      {"storage.pages_per_delete",
       ratio(static_cast<double>(
                 (z.delete_tally - a.delete_tally).logical_total()),
             static_cast<double>(t.deletes)),
       "pages"},
      {"storage.buffer_hit_ratio",
       ratio(static_cast<double>(pages.buffer_hits),
             static_cast<double>(pages.buffer_hits + pages.reads)),
       "ratio"},
      {"storage.evictions_per_kop",
       ratio(static_cast<double>(p1.evictions - p0.evictions), kops),
       "count/kop"},
      {"storage.writebacks_per_kop",
       ratio(static_cast<double>(p1.writebacks - p0.writebacks), kops),
       "count/kop"},
      {"storage.pin_bypasses",
       static_cast<double>(p1.pin_bypasses - p0.pin_bypasses), "count"},
      {"storage.allocated_pages",
       static_cast<double>(s.db->pager().allocated_pages()), "pages"},
      {"trace.overhead",
       1.0 - ratio(w.OpsPerSec(), untraced_ops_per_sec),
       "ratio"},
  };
}

void PrintInstalled(const Bench& b, const Served& s, const char* when) {
  for (const TracePath& tp : b.spec.paths) {
    std::printf("# installed %s: %s = %s\n", when, tp.id.c_str(),
                s.db->has_indexes(tp.id)
                    ? s.db->physical(tp.id)
                          .config()
                          .ToString(b.spec.schema, tp.path)
                          .c_str()
                    : "(none)");
  }
}

void PrintRunInfo(const Bench& b, const Served& s, std::uint64_t window_ops) {
  obs::JsonWriter j;
  j.BeginObject()
      .Key("workload").Value(b.workload->name)
      .Key("seed").Value(b.options.seed)
      .Key("clients").Value(b.clients)
      .Key("nproc").Value(static_cast<std::uint64_t>(b.cpus.size()))
      .Key("window_ops").Value(window_ops)
      .Key("setup_ops").Value(s.setup_ops)
      .Key("pool_pages").Value(static_cast<std::uint64_t>(s.pool_pages))
      .Key("budget_bytes")
      .Value(b.workload->churn ? kChurnBudgetBytes : -1.0)
      .Key("population").BeginObject();
  for (const TracePopulate& p : b.spec.populate) {
    j.Key(b.spec.schema.GetClass(p.cls).name()).Value(p.count);
  }
  j.EndObject().EndObject();
  std::printf("# run %s\n", j.str().c_str());
}

void PrintResult(bool correct, const Window& w,
                 const std::vector<Metric>& metrics) {
  obs::JsonWriter j;
  j.BeginObject()
      .Key("correct").Value(correct)
      .Key("attempted").Value(w.total.attempted)
      .Key("failed").Value(w.total.failed)
      .Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name).BeginObject().Key("value").Value(m.value).Key("unit").Value(
        m.unit).EndObject();
  }
  j.EndObject().EndObject();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
}

bool ReportGate(const std::vector<std::string>& failures, const char* which) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "correctness gate (%s window): %s\n", which,
                 f.c_str());
  }
  return failures.empty();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pathix_perfbench --workload "
               "lookup|lookup_cached|churn_drift --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

int Run(Bench& b) {
  LiveMap populated;
  if (!b.options.trace) {
    // Several set-ups, the last one serves; setup_s is their median.
    std::vector<double> setups;
    Served s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      s.controller.reset();  // before the database it points into
      s.db.reset();
      if (const Status st = SetUp(b, &s, &populated); !st.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
        return 2;
      }
      setups.push_back(s.setup_s);
    }
    // Peak memory is the engine's: the set-ups' high-water mark (one
    // populated, configured, for lookup_cached pool-prefilled database at
    // a time), read before the clients' streams exist, plus how far the
    // window pushed the high-water mark above its starting RSS. Everything
    // the benchmark itself holds in the window is allocated before it.
    const double setup_peak_mb = PeakRssMb();
    std::vector<Client> clients =
        MakeClients(b, populated, b.options.seconds);
    PrintInstalled(b, s, "after setup");
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "cannot reset the RSS high-water mark\n");
      return 2;
    }
    const double window_start_mb = ProcStatusMb("VmRSS:");
    const Window w = Measure(s, b, clients, b.options.seconds, false);
    const double window_growth_mb = ProcStatusMb("VmHWM:") - window_start_mb;
    std::printf("# rss: set-up peak %.2f MB, window start %.2f MB, window "
                "growth %.2f MB\n",
                setup_peak_mb, window_start_mb, window_growth_mb);
    const bool correct = ReportGate(Gate(s, b, clients, w), "untraced");
    PrintRunInfo(b, s, w.total.attempted);
    PrintInstalled(b, s, "after window");
    PrintResult(correct, w,
                EndToEnd(w, perfbench::Quantile(setups, 0.5),
                         setup_peak_mb + std::max(0.0, window_growth_mb)));
    return correct ? 0 : 1;
  }

  // Traced: the same window twice on fresh databases, half the time each.
  const double half = b.options.seconds / 2;
  double untraced_ops_per_sec = 0;
  bool correct = true;
  {
    Served s;
    if (const Status st = SetUp(b, &s, &populated); !st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 2;
    }
    std::vector<Client> clients = MakeClients(b, populated, half);
    const Window w = Measure(s, b, clients, half, false);
    correct = ReportGate(Gate(s, b, clients, w), "untraced") && correct;
    untraced_ops_per_sec = w.OpsPerSec();
  }
  Served s;
  if (const Status st = SetUp(b, &s, &populated); !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 2;
  }
  PrintInstalled(b, s, "after setup");
  std::vector<Client> clients = MakeClients(b, populated, half);
  ForwardingObserver forward(s.controller.get());
  s.db->SetObserver(&forward);
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Clear();
  const std::int64_t offset_ns =
      static_cast<std::int64_t>(NowNs()) -
      static_cast<std::int64_t>(tracer.NowMicros()) * 1000;
  tracer.SetEnabled(true);
  const Window w = Measure(s, b, clients, half, true);
  tracer.SetEnabled(false);
  correct = ReportGate(Gate(s, b, clients, w), "traced") && correct;

  std::vector<SpanBuffer> buffers;
  for (Client& c : clients) buffers.push_back(std::move(c.spans));
  const std::vector<perfbench::EngineSpan> engine =
      perfbench::MergeEngineSpans(tracer.Snapshot(), buffers, offset_ns);
  tracer.Clear();
  perfbench::SpanSummary summary = perfbench::Summarize(buffers, engine);
  if (!b.options.trace_out.empty() &&
      !perfbench::WriteTraceEventJson(b.options.trace_out, buffers, engine,
                                      kTraceSampleEvery)) {
    std::fprintf(stderr, "cannot write %s\n", b.options.trace_out.c_str());
    return 2;
  }
  PrintRunInfo(b, s, w.total.attempted);
  PrintInstalled(b, s, "after window");
  PrintResult(correct, w, PerLayer(s, w, summary, untraced_ops_per_sec));
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b;
  Options& o = b.options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_trace) return Usage("--seed and --trace are required");
  for (const Workload& w : Workloads()) {
    if (o.workload == w.name) b.workload = &w;
  }
  if (b.workload == nullptr) return Usage("unknown --workload");

  Result<TraceSpec> spec = ParseTraceSpec(kSpec);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  b.spec = std::move(spec).value();
  for (const char* name : b.workload->phases) {
    for (const TracePhase& p : b.spec.phases) {
      if (p.name == name) b.phases.push_back(&p);
    }
  }
  b.cpus = AllowedCpus();
  b.clients = std::max(
      1, std::min(b.workload->max_clients, static_cast<int>(b.cpus.size())));
  for (std::size_t p = 0; p < b.spec.paths.size(); ++p) {
    std::vector<Key>& keys = b.keys.emplace_back();
    const int n = perfbench::EndingValueCount(b.spec, static_cast<int>(p));
    for (int i = 0; i < n; ++i) keys.push_back(Key::FromString(EndingValue(i)));
  }
  b.controller_options.orgs = b.spec.options.orgs;
  b.controller_options.physical_params = b.spec.catalog.params();
  if (b.workload->churn) {
    b.controller_options.storage_budget_bytes = kChurnBudgetBytes;
    b.controller_options.orgs = kChurnOrgs;
  }
  return Run(b);
}
