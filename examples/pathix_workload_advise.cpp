// pathix_workload_advise: joint, storage-budgeted index selection for a
// workload of overlapping paths — feed it a workload spec (see
// src/io/spec_parser.h for the format), get one index configuration per
// path chosen over the shared candidate pool, compared against the search's
// greedy seed (the per-path standalone optima, sharing what they have in
// common) and the sum of those optima.
//
//   $ ./examples/pathix_workload_advise ../examples/specs/vehicle_workload.pix
//   $ ./examples/pathix_workload_advise    # runs the embedded demo spec

#include <cstdio>
#include <iostream>

#include "advisor/workload_advisor.h"
#include "io/spec_parser.h"

namespace {

// Embedded demo distinct from the shipped vehicle_workload.pix (which the
// smoke test exercises): a document store where reviewers search
// submissions by forum name and moderators search forums directly.
constexpr const char* kDemoSpec = R"(
class Submission 80000 20000 1
class Review     40000 15000 2
class Forum      500 500 3

ref Submission review Review multi
ref Review     forum  Forum
attr Forum name string

load Forum 0.1 0.05 0.02            # default: both paths touch Forum

path Submission review forum name   # reviewer search
load Submission 0.5 0.1 0.05
load Review     0.1 0.2 0.1

path Review forum name              # moderator search
load Review 0.4 0.2 0.1
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace pathix;

  Result<WorkloadSpec> spec = argc > 1 ? ParseWorkloadSpecFile(argv[1])
                                       : ParseWorkloadSpec(kDemoSpec);
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status().ToString() << "\n";
    return 1;
  }
  WorkloadSpec& s = spec.value();
  if (argc <= 1) {
    std::cout << "(no spec file given; using the embedded demo — pass a "
                 ".pix file, e.g. examples/specs/vehicle_workload.pix)\n\n";
  }

  Result<WorkloadRecommendation> rec = AdviseWorkload(
      s.schema, s.catalog, s.paths, s.options, s.joint_options);
  if (!rec.ok()) {
    std::cerr << "error: " << rec.status().ToString() << "\n";
    return 1;
  }
  const WorkloadRecommendation& r = rec.value();

  std::cout << "=== Joint index selection over " << s.paths.size()
            << " paths ===\n\n";
  for (std::size_t i = 0; i < s.paths.size(); ++i) {
    const JointPathSelection& sel = r.joint.per_path[i];
    std::cout << "path " << i + 1 << ": "
              << s.paths[i].path.ToString(s.schema) << "\n"
              << "  joint pick : "
              << sel.config.ToString(s.schema, s.paths[i].path) << "\n"
              << "  standalone : "
              << r.joint.greedy_per_path[i].config.ToString(s.schema,
                                                            s.paths[i].path)
              << "  (cost " << r.joint.greedy_per_path[i].standalone_cost
              << ")\n";
  }

  std::cout << "\nphysical indexes chosen (" << r.joint.chosen.size()
            << " distinct):\n";
  for (const ChosenIndex& c : r.joint.chosen) {
    const CandidateEntry& e =
        r.pool.entries()[static_cast<std::size_t>(c.entry_id)];
    std::cout << "  " << e.label << "  " << e.storage_bytes / (1024.0 * 1024.0)
              << " MiB, paths";
    for (int p : c.path_indexes) std::cout << " " << p + 1;
    if (c.path_indexes.size() > 1) std::cout << "  [shared]";
    std::cout << "\n";
  }

  const char* baseline_note = s.has_budget ? "  (ignores the budget)" : "";
  std::printf(
      "\ntotal cost, independent optima : %.6g%s\n"
      "total cost, greedy seed        : %.6g%s\n"
      "total cost, joint selection    : %.6g\n",
      r.total_cost_independent, baseline_note, r.total_cost_greedy,
      baseline_note, r.total_cost_joint);
  std::printf("total index storage            : %.3f MiB",
              r.joint.total_storage_bytes / (1024.0 * 1024.0));
  if (s.has_budget) {
    std::printf(" (budget %.3f MiB)",
                s.joint_options.storage_budget_bytes / (1024.0 * 1024.0));
  }
  std::printf(
      "\nsolver                         : %ld nodes explored, %ld pruned\n",
      r.joint.nodes_explored, r.joint.nodes_pruned);
  return 0;
}
