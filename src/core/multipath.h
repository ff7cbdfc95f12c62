#pragma once

#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/structural_key.h"

/// \file multipath.h
/// \brief Extension (paper's Section 6, "further research"): index selection
/// for a *set* of paths that may overlap. PathIx implements the greedy
/// sharing heuristic (README, "Workload advisor"): optimize each path
/// independently, then merge physically identical indexed subpaths (same
/// class/attribute sequence, same organization) so their storage and
/// maintenance are paid once.
///
/// This is a documented heuristic, not an algorithm from the paper.

namespace pathix {

/// One path with its own workload. \p name is an optional caller-chosen
/// identifier (spec path names; the online subsystem's SimDatabase path
/// ids); empty when the workload is anonymous.
struct PathWorkload {
  std::string name;
  Path path;
  LoadDistribution load;
};

/// A physically shared index discovered across paths. Identity is the
/// structural key (class ids + attribute sequence + organization); the label
/// is rendered from it for reporting only.
struct SharedIndex {
  StructuralKey key;              ///< physical identity of the shared index
  std::string label;              ///< e.g. "Veh.man (MIX)" — reporting only
  std::vector<int> path_indexes;  ///< which inputs use it
  double saved_cost = 0;          ///< maintenance counted once instead of k times
};

struct MultiPathRecommendation {
  std::vector<Recommendation> per_path;
  std::vector<SharedIndex> shared;
  double total_cost_independent = 0;  ///< sum of per-path optimal costs
  double total_cost_shared = 0;       ///< after merging duplicates
};

/// Runs the advisor per path and merges duplicate indexed subpaths.
Result<MultiPathRecommendation> AdviseMultiplePaths(
    const Schema& schema, const Catalog& catalog,
    const std::vector<PathWorkload>& paths, const AdvisorOptions& options = {});

}  // namespace pathix
