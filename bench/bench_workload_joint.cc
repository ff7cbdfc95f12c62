// Workload advisor benchmark: joint vs greedy vs independent selection as
// the number of paths and their overlap grow.
//
// Two sweeps over synthetic reference chains:
//  - path count: k suffix paths of one chain (maximal overlap) — every
//    added path shares its whole tail with the others;
//  - overlap: k fixed-length paths that share a common tail of varying
//    length (0 = disjoint chains, larger = more shareable candidates).
//
// Reports the three totals, the joint improvement over the greedy seed,
// and the solve time / explored nodes of the exhaustive and
// branch-and-bound joint optimizers. Self-timed (no Google Benchmark).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "advisor/workload_advisor.h"
#include "bench_json.h"

namespace {

using namespace pathix;

/// A chain schema A0 -> A1 -> ... -> A_{depth}, ending in an atomic
/// attribute, with statistics that shrink along the chain (fan-in > 1).
struct ChainSetup {
  Schema schema;
  Catalog catalog;
  std::vector<ClassId> classes;
};

ChainSetup MakeChain(int depth, double root_objects) {
  ChainSetup setup;
  double n = root_objects;
  for (int i = 0; i <= depth; ++i) {
    const ClassId cls =
        setup.schema.AddClass("C" + std::to_string(i)).value();
    setup.classes.push_back(cls);
    setup.catalog.SetClassStats(cls, ClassStats{n, n / 2, 1, 64});
    n = n / 4 < 16 ? 16 : n / 4;
  }
  for (int i = 0; i < depth; ++i) {
    setup.schema
        .AddReferenceAttribute(setup.classes[static_cast<std::size_t>(i)],
                               "a" + std::to_string(i),
                               setup.classes[static_cast<std::size_t>(i + 1)],
                               /*multi_valued=*/true)
        .ok();
  }
  setup.schema
      .AddAtomicAttribute(setup.classes.back(), "name", AtomicType::kString)
      .ok();
  return setup;
}

/// The path starting at chain level \p start (0-based) down to the atomic
/// attribute, with a load touching every class it navigates.
PathWorkload SuffixPath(const ChainSetup& setup, int start, double alpha) {
  const int depth = static_cast<int>(setup.classes.size()) - 1;
  std::vector<std::string> attrs;
  for (int i = start; i < depth; ++i) attrs.push_back("a" + std::to_string(i));
  attrs.push_back("name");
  PathWorkload w;
  w.path = Path::Create(setup.schema,
                        setup.classes[static_cast<std::size_t>(start)], attrs)
               .value();
  for (int i = start; i <= depth; ++i) {
    w.load.Set(setup.classes[static_cast<std::size_t>(i)], alpha,
               alpha / 2, alpha / 4);
  }
  return w;
}

struct Timed {
  JointSelectionResult result;
  double millis = 0;
};

Timed RunJoint(const CandidatePool& pool, JointOptions::Algorithm algo) {
  JointOptions opts;
  opts.algorithm = algo;
  const auto start = std::chrono::steady_clock::now();
  Timed timed;
  timed.result = SelectJointConfiguration(pool, opts).value();
  timed.millis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return timed;
}

void SweepPathCount(pathix_bench::BenchJson* json) {
  std::printf(
      "=== path-count sweep: k suffix paths of one depth-4 chain ===\n\n"
      "  k   independent   greedy      joint       joint/greedy   "
      "bb ms (nodes)        exhaustive ms (nodes)\n");
  const ChainSetup setup = MakeChain(/*depth=*/4, /*root_objects=*/100000);
  std::vector<PathWorkload> paths;
  for (int k = 1; k <= 4; ++k) {
    paths.push_back(SuffixPath(setup, k - 1, 0.2 + 0.1 * k));
    const WorkloadRecommendation rec =
        AdviseWorkload(setup.schema, setup.catalog, paths).value();
    const Timed bb = RunJoint(rec.pool, JointOptions::Algorithm::kBranchAndBound);
    json->Add("paths" + std::to_string(k) + "_joint_cost",
              bb.result.total_cost);
    json->Add("paths" + std::to_string(k) + "_greedy_cost",
              rec.total_cost_greedy);
    json->Add("paths" + std::to_string(k) + "_bb_ms", bb.millis);
    json->Add("paths" + std::to_string(k) + "_bb_nodes",
              bb.result.nodes_explored);
    // Exhaustive enumeration visits the full product of per-path
    // configuration counts; past 2 fully-overlapping paths it stops being a
    // benchmark and becomes a heat source.
    if (k <= 2) {
      const Timed ex = RunJoint(rec.pool, JointOptions::Algorithm::kExhaustive);
      std::printf(
          "  %-3d %-13.4g %-11.4g %-11.4g %-14.4f %7.2f (%-8ld)   %10.2f "
          "(%ld)\n",
          k, rec.total_cost_independent, rec.total_cost_greedy,
          bb.result.total_cost,
          rec.total_cost_greedy > 0
              ? bb.result.total_cost / rec.total_cost_greedy
              : 1.0,
          bb.millis, bb.result.nodes_explored, ex.millis,
          ex.result.nodes_explored);
    } else {
      std::printf(
          "  %-3d %-13.4g %-11.4g %-11.4g %-14.4f %7.2f (%-8ld)   %10s\n", k,
          rec.total_cost_independent, rec.total_cost_greedy,
          bb.result.total_cost,
          rec.total_cost_greedy > 0
              ? bb.result.total_cost / rec.total_cost_greedy
              : 1.0,
          bb.millis, bb.result.nodes_explored, "(skipped)");
    }
  }
  std::printf("\n");
}

void SweepOverlap(pathix_bench::BenchJson* json) {
  std::printf(
      "=== overlap sweep: 3 depth-3 paths sharing a tail of t levels ===\n\n"
      "  t   candidates   shared   independent   greedy      joint       "
      "joint/greedy\n");
  for (int tail = 0; tail <= 3; ++tail) {
    // Three branches B0/B1/B2 that join a common chain for the last `tail`
    // levels; tail = 0 keeps them fully disjoint.
    Schema schema;
    Catalog catalog;
    const int kBranches = 3;
    const int depth = 3;  // levels per path
    std::vector<ClassId> shared_chain;
    for (int i = 0; i < tail; ++i) {
      // The shared tail is deliberately heavy (many objects, busy updates)
      // so paying its index maintenance once instead of three times shows.
      const ClassId cls = schema.AddClass("S" + std::to_string(i)).value();
      catalog.SetClassStats(cls, ClassStats{80000.0 / (i + 1), 8000, 1, 64});
      if (!shared_chain.empty()) {
        schema
            .AddReferenceAttribute(shared_chain.back(),
                                   "s" + std::to_string(i - 1), cls, true)
            .ok();
      }
      shared_chain.push_back(cls);
    }
    if (!shared_chain.empty()) {
      schema.AddAtomicAttribute(shared_chain.back(), "name",
                                AtomicType::kString)
          .ok();
    }

    std::vector<PathWorkload> paths;
    for (int b = 0; b < kBranches; ++b) {
      std::vector<ClassId> own;
      const int own_levels = depth - tail;
      double n = 50000;
      for (int i = 0; i < own_levels; ++i) {
        const ClassId cls =
            schema
                .AddClass("B" + std::to_string(b) + "_" + std::to_string(i))
                .value();
        catalog.SetClassStats(cls, ClassStats{n, n / 2, 1, 64});
        n /= 5;
        if (!own.empty()) {
          schema
              .AddReferenceAttribute(own.back(), "b" + std::to_string(i - 1),
                                     cls, true)
              .ok();
        }
        own.push_back(cls);
      }
      std::vector<std::string> attrs;
      for (int i = 1; i < own_levels; ++i) {
        attrs.push_back("b" + std::to_string(i - 1));
      }
      if (tail > 0) {
        if (!own.empty()) {
          schema.AddReferenceAttribute(own.back(), "join", shared_chain[0],
                                       true)
              .ok();
          attrs.push_back("join");
        }
        for (int i = 1; i < tail; ++i) {
          attrs.push_back("s" + std::to_string(i - 1));
        }
        attrs.push_back("name");
      } else {
        schema.AddAtomicAttribute(own.back(), "name", AtomicType::kString)
            .ok();
        attrs.push_back("name");
      }
      PathWorkload w;
      const ClassId start = own.empty() ? shared_chain[0] : own[0];
      w.path = Path::Create(schema, start, attrs).value();
      // Branch classes are query-heavy; the shared tail is update-heavy, so
      // an index over it is expensive to maintain — exactly the candidate
      // worth paying for once across the three paths.
      for (const ClassId cls : w.path.classes()) {
        const bool is_shared = std::find(shared_chain.begin(),
                                         shared_chain.end(),
                                         cls) != shared_chain.end();
        if (is_shared) {
          w.load.Set(cls, 0.05, 1.5, 1.0);
        } else {
          w.load.Set(cls, 0.4, 0.05, 0.02);
        }
      }
      paths.push_back(std::move(w));
    }

    const WorkloadRecommendation rec =
        AdviseWorkload(schema, catalog, paths).value();
    int shared = 0;
    for (const CandidateEntry& e : rec.pool.entries()) {
      if (e.shareable) ++shared;
    }
    json->Add("tail" + std::to_string(tail) + "_joint_cost",
              rec.total_cost_joint);
    json->Add("tail" + std::to_string(tail) + "_greedy_cost",
              rec.total_cost_greedy);
    std::printf("  %-3d %-12zu %-8d %-13.4g %-11.4g %-11.4g %.4f\n", tail,
                rec.pool.entries().size(), shared,
                rec.total_cost_independent, rec.total_cost_greedy,
                rec.total_cost_joint,
                rec.total_cost_greedy > 0
                    ? rec.total_cost_joint / rec.total_cost_greedy
                    : 1.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  pathix_bench::BenchJson json("bench_workload_joint");
  SweepPathCount(&json);
  SweepOverlap(&json);
  std::printf(
      "(joint <= greedy <= independent by construction; the joint "
      "optimizer's edge\n grows with overlap, since the greedy seed only "
      "shares indexes the per-path\n optima happen to agree on)\n");
  json.Write();
  return 0;
}
