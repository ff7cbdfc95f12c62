#pragma once

#include <limits>
#include <vector>

#include "advisor/candidate_pool.h"
#include "core/index_config.h"

/// \file joint_optimizer.h
/// \brief Joint, storage-budgeted index selection over the shared candidate
/// pool: one index configuration per workload path, minimizing the
/// *workload* cost in which a physically shared index pays maintenance and
/// storage once.
///
/// Cost of an assignment (one configuration c_i per path):
///
///   sum_i QP_i(c_i)  +  sum_{distinct entries E used}  max over uses of E
///                                                       of its maintenance
///
/// subject to  sum_{distinct entries E used} storage(E) <= budget.
///
/// The pool holds one entry per physical layout (MX and NONE per level;
/// advisor/candidate_pool.h), so no two configurations of a path differ
/// only in how they spell the same indexes. The greedy seed is each path's
/// standalone optimum priced under this accounting; it is the workload
/// advisor's greedy baseline, and its per-path standalone costs sum to the
/// independent baseline. Without a budget the joint optimum is <= its
/// greedy seed <= the sum of independent optima by construction (the
/// search is seeded with the greedy assignment and the space contains it).
///
/// The search is a branch-and-bound over paths. The admissible lower bound
/// for the unassigned paths is each path's optimum with maintenance (and
/// storage, for budget pruning) discounted to zero on *shareable* candidates
/// — a path can never beat its own unshared optimum on the candidates only
/// it can use, and on shared candidates another path may already have paid.
/// Exhaustive enumeration (JointOptions::Algorithm::kExhaustive) is the
/// tests' ground truth only.

namespace pathix {

/// Cost ties, in pages per operation: the search replaces its incumbent only
/// with an assignment cheaper by more than this, and the online controller
/// holds on savings no larger (a relabeling of one cost, not a gain).
inline constexpr double kJointCostTolerance = 1e-7;

/// Memory guard, not a tuning knob: a path with more configurations than
/// this fails with FailedPrecondition before any is built.
inline constexpr long kMaxConfigsPerPath = 500000;

struct JointOptions {
  /// Maximum total bytes across the distinct chosen indexes; infinity (the
  /// default) disables the constraint.
  double storage_budget_bytes = std::numeric_limits<double>::infinity();

  enum class Algorithm {
    kBranchAndBound,   ///< bounded search, greedy-seeded (production)
    kExhaustive,       ///< full, unseeded enumeration (ground truth for tests)
  };
  Algorithm algorithm = Algorithm::kBranchAndBound;

  /// Number of scored alternative assignments captured into
  /// JointSelectionResult::alternatives: each alternative is the chosen
  /// assignment with exactly one path's configuration swapped, re-priced
  /// under the shared accounting. 0 (the default) skips the extra
  /// evaluation entirely — the search itself is unchanged either way.
  int capture_alternatives = 0;
};

/// The configuration chosen for one workload path.
struct JointPathSelection {
  IndexConfiguration config;
  double standalone_cost = 0;  ///< unshared cost of the same configuration
};

/// One distinct physical index of the joint solution.
struct ChosenIndex {
  int entry_id = -1;              ///< index into CandidatePool::entries()
  std::vector<int> path_indexes;  ///< paths whose configuration uses it
  double charged_maintain = 0;    ///< the (single) maintenance charge
};

/// One scored alternative assignment (JointOptions::capture_alternatives):
/// the chosen assignment with \p path_index's configuration swapped to
/// \p config, everything else fixed, re-priced under the same shared
/// accounting the search optimizes. total_cost - the chosen total_cost is
/// the candidate's why-not margin.
struct JointCandidateScore {
  int path_index = -1;
  IndexConfiguration config;
  double total_cost = 0;
  double total_storage_bytes = 0;
  bool within_budget = true;
};

struct JointSelectionResult {
  std::vector<JointPathSelection> per_path;  ///< one per workload path
  std::vector<ChosenIndex> chosen;           ///< distinct physical indexes
  double total_cost = 0;           ///< shared-aware workload cost
  double total_storage_bytes = 0;  ///< sum over distinct chosen indexes
  long nodes_explored = 0;
  long nodes_pruned = 0;
  /// Total enumerated per-path configurations (the search space's width).
  long configs_enumerated = 0;
  /// Admissible root lower bound: sum over paths of the cheapest
  /// maintenance-discounted per-path cost. total_cost >= lower_bound always;
  /// the gap is how loose the bound was on this instance.
  double lower_bound = 0;
  /// Single-swap alternatives, cheapest first, capped at
  /// capture_alternatives (empty when capturing is off).
  std::vector<JointCandidateScore> alternatives;
  /// The greedy seed: each path's standalone optimum (one per workload
  /// path), and their total priced under the shared accounting — what the
  /// search improved on.
  std::vector<JointPathSelection> greedy_per_path;
  double greedy_cost = 0;
  bool greedy_feasible = false;
};

/// Selects one configuration per path over the pool. Fails with
/// FailedPrecondition when no assignment fits the storage budget.
Result<JointSelectionResult> SelectJointConfiguration(
    const CandidatePool& pool, const JointOptions& options = {});

}  // namespace pathix
