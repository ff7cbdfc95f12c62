#pragma once

#include <map>
#include <vector>

#include "core/index_config.h"
#include "core/structural_key.h"
#include "costmodel/org_model.h"

/// \file subpath_cost.h
/// \brief The processing cost of one subpath under one organization — the
/// quantity stored in the algorithm's Cost_Matrix (Sections 4 and 5).

namespace pathix {

/// Breakdown of a subpath's processing cost (all in page accesses,
/// workload-weighted).
struct SubpathCost {
  double query = 0;     ///< searching cost of the subpath's own query load
  double prefix = 0;    ///< searching cost of queries w.r.t. upstream classes
  double maintain = 0;  ///< insert/delete maintenance within the subpath
  double boundary = 0;  ///< CMD: deletions of the next subpath's root class

  double total() const { return query + prefix + maintain + boundary; }
};

/// \brief The load-independent unit costs of one (subpath, organization)
/// pair: every per-class model evaluation ComputeSubpathCost weighs with the
/// workload frequencies.
///
/// The organization models of Section 3.1 depend only on the catalog
/// statistics and physical parameters, never on the load distribution —
/// the workload enters the processing cost purely as linear weights. Unit
/// costs can therefore be computed once and reweighed for every drifting
/// load estimate (the online controller's drift checks; see
/// CandidatePoolBuilder in advisor/candidate_pool.h).
struct SubpathUnitCosts {
  /// Per level l in [a, b] (outer index l - a) and hierarchy position j:
  /// CR_X(C_{l,j}), CMins_X(C_{l,j}), CMdel_X(C_{l,j}).
  std::vector<std::vector<double>> query;
  std::vector<std::vector<double>> insert;
  std::vector<std::vector<double>> del;
  double prefix_query = 0;  ///< CR+_X(C_a): unit cost of upstream queries
  double boundary = 0;      ///< CMD_X(A_b): unit cost of a C_{b+1} deletion
};

/// Evaluates the organization model for every class of the subpath [a, b],
/// including zero-load classes.
SubpathUnitCosts ComputeSubpathUnitCosts(const PathContext& ctx, int a, int b,
                                         IndexOrg org);

/// Weighs precomputed unit costs with the context's load distribution.
/// Classes with zero frequency contribute nothing, whatever their unit cost
/// (degenerate statistics can make an unloaded class's unit cost non-finite).
SubpathCost WeighSubpathCost(const SubpathUnitCosts& unit,
                             const PathContext& ctx, int a, int b);

/// \brief Computes the processing cost of indexing the subpath [a, b] of the
/// context's path with organization \p org (the paper's Section 4):
///
///   PC(S, X) = sum_{C_{l,x} in scope(S)} alpha CR_X(C_{l,x})
///            + prefix_alpha(S) * CR+_X(C_a)
///            + sum_{C_{l,x}} [beta CMins_X + gamma CMdel_X]
///            + [b < n] sum_{x in C+_{b+1}} gamma CMD_X(A_b)
///
/// The decomposition follows Propositions 4.1/4.2 and Definition 4.2, which
/// make configuration costs the sum of their subpath costs.
SubpathCost ComputeSubpathCost(const PathContext& ctx, int a, int b,
                               IndexOrg org);

/// Accumulates one configured part of \p path into a shared-accounting
/// workload total — the joint advisor's objective, also used by the joint
/// controller's current-cost pricing and the measured-vs-modeled
/// validation: query+prefix is charged per use, maintenance once per
/// distinct physical structure (the running maximum across uses, keyed by
/// structural identity in \p placed_maintain). Returns the increment to the
/// total.
double AccumulateSharedPartCost(const Path& path, const IndexedSubpath& part,
                                double query_prefix, double maintain,
                                std::map<StructuralKey, double>* placed_maintain);

}  // namespace pathix
