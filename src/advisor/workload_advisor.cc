#include "advisor/workload_advisor.h"

namespace pathix {

Result<WorkloadRecommendation> AdviseWorkload(
    const Schema& schema, const Catalog& catalog,
    const std::vector<PathWorkload>& paths, const AdvisorOptions& options,
    const JointOptions& joint_options) {
  WorkloadRecommendation rec;

  Result<CandidatePool> pool =
      CandidatePool::Build(schema, catalog, paths, options);
  if (!pool.ok()) return pool.status();
  rec.pool = std::move(pool).value();

  Result<JointSelectionResult> joint =
      SelectJointConfiguration(rec.pool, joint_options);
  if (!joint.ok()) return joint.status();
  rec.joint = std::move(joint).value();

  rec.total_cost_joint = rec.joint.total_cost;
  rec.total_cost_greedy = rec.joint.greedy_cost;
  for (const JointPathSelection& seed : rec.joint.greedy_per_path) {
    rec.total_cost_independent += seed.standalone_cost;
  }
  return rec;
}

}  // namespace pathix
