#pragma once

#include <vector>

#include "core/index_config.h"
#include "costmodel/path_context.h"
#include "index/physical_config.h"
#include "storage/object_store.h"

/// \file transition_cost.h
/// \brief Pricing an index reconfiguration in page accesses.
///
/// Going from the installed physical configurations to target ones costs
/// real I/O a steady-state cost matrix never sees: dropped indexes touch
/// their pages once to free them, new indexes scan the class segments in
/// their scope and write their structures out. Parts present before and
/// after (same structural identity — possibly on a *different* path, since
/// the registry shares structures across paths) are free: the physical
/// layer genuinely keeps them (SimDatabase::ReconfigureIndexes). The
/// reconfiguration controller amortizes this price against predicted
/// steady-state savings over its horizon.

namespace pathix {

/// One reconfiguration's page price, by component.
struct TransitionCost {
  double drop_pages = 0;   ///< pages of dropped parts, touched to free them
  double scan_pages = 0;   ///< store segment pages read to build new parts
  double write_pages = 0;  ///< pages written for the new parts' structures

  double total() const { return drop_pages + scan_pages + write_pages; }
};

/// One path's side of a joint transition.
struct PathTransition {
  const PathContext* ctx = nullptr;            ///< bound to the path
  const PhysicalConfiguration* current = nullptr;  ///< nullptr = nothing
  const IndexConfiguration* target = nullptr;
};

/// Prices the move of a whole workload at once, deduplicating by structural
/// identity: a physical part is dropped only when *no* target configuration
/// keeps it, and built (scan + write, once) only when no current
/// configuration already holds it — shared parts are free across paths, not
/// just across time. Dropped parts are priced from their actual physical
/// size; new parts from the segment pages of the classes they scan plus
/// the analytic storage estimate of their structures.
TransitionCost EstimateJointTransitionCost(
    const std::vector<PathTransition>& paths, const ObjectStore& store);

/// Assembles the *measured* counterpart of a modeled transition price after
/// the commit happened: dropped parts keep the modeled component (already
/// priced from their actual physical pages), scan/write come from the
/// pager-measured build I/O of the parts the registry actually built during
/// the commit (PhysicalPartRegistry::cumulative_build_io delta). The
/// controller gates on the estimate — the build has not happened yet when
/// the decision is made — and records this next to it so every switch is a
/// modeled-vs-measured data point.
inline TransitionCost MeasuredTransitionCost(const TransitionCost& modeled,
                                             const AccessStats& build_io) {
  TransitionCost measured;
  measured.drop_pages = modeled.drop_pages;
  measured.scan_pages = static_cast<double>(build_io.reads);
  measured.write_pages = static_cast<double>(build_io.writes);
  return measured;
}

}  // namespace pathix
