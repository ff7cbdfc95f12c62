#pragma once

#include <vector>

#include "advisor/joint_optimizer.h"

/// \file workload_advisor.h
/// \brief High-level facade of the workload advisor: builds the shared
/// candidate pool, runs the joint optimizer, and reports the two baselines
/// it must beat — its greedy seed (each path's standalone optimum, with
/// shared indexes paying maintenance once) and the sum of those standalone
/// optima.
///
/// Invariant without a storage budget (verified by the tests):
///   total_cost_joint <= total_cost_greedy <= total_cost_independent.
/// With a finite storage budget the joint result additionally respects
/// sum of distinct index bytes <= budget (or the call fails with a clear
/// FailedPrecondition when nothing feasible exists); the baselines ignore
/// the budget.

namespace pathix {

struct WorkloadRecommendation {
  CandidatePool pool;          ///< priced candidates, kept for reporting
  JointSelectionResult joint;  ///< the jointly optimal assignment

  double total_cost_joint = 0;        ///< == joint.total_cost
  double total_cost_greedy = 0;       ///< == joint.greedy_cost
  double total_cost_independent = 0;  ///< sum of joint.greedy_per_path costs
};

/// Runs the full workload pipeline: candidate pool, then joint selection
/// under \p joint_options.
Result<WorkloadRecommendation> AdviseWorkload(
    const Schema& schema, const Catalog& catalog,
    const std::vector<PathWorkload>& paths,
    const AdvisorOptions& options = {},
    const JointOptions& joint_options = {});

}  // namespace pathix
