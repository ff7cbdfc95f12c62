#pragma once

#include <set>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "schema/path.h"
#include "storage/object_store.h"

/// \file analyze.h
/// \brief Statistics collection ("ANALYZE"): derives the catalog statistics
/// the cost model needs (n, d, nin per class along a path) from the actual
/// contents of an object store, so that analytic predictions can be
/// compared against measured page accesses on the same data.

namespace pathix {

/// Computes ClassStats for every class in the scope of \p path from the
/// store's live objects. \p params seeds the catalog's physical parameters
/// (they must match the store's pager).
Catalog CollectStatistics(const ObjectStore& store, const Schema& schema,
                          const Path& path, const PhysicalParams& params);

/// Scoped refresh: re-collects statistics only for the classes of \p path's
/// scope listed in \p classes, leaving every other class's entry in
/// \p *catalog untouched (the reconfiguration controllers call this with
/// the classes whose live-object count drifted past their threshold, so a
/// stable class costs no store pass). Returns the number of (class,
/// attribute) collections performed — the controller's ANALYZE work
/// counter. When \p collected is non-null, (class, attribute) pairs already
/// in it are skipped and newly collected pairs are added — callers
/// refreshing several overlapping paths scan each shared class once.
int RefreshStatistics(const ObjectStore& store, const Schema& schema,
                      const Path& path, const std::set<ClassId>& classes,
                      Catalog* catalog,
                      std::set<std::pair<ClassId, std::string>>* collected =
                          nullptr);

}  // namespace pathix
