#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/structural_key.h"
#include "costmodel/subpath_cost.h"

/// \file candidate_pool.h
/// \brief The shared candidate pool of the workload advisor.
///
/// Joint selection across a workload of overlapping paths (the paper's
/// Section 6 "further research"; CoPhy-style in spirit) starts from one
/// pool of *physical* index candidates: every subpath of every workload
/// path under every candidate organization, structurally deduplicated via
/// StructuralKey — except that MX and NONE appear on single-level subpaths
/// only. An MX block over several levels is one simple index per (level,
/// class) (Section 2.2), and a multi-level NONE block is no index on each
/// of its levels: both are physically their per-level split, which the
/// pool already holds, so every entry is one physical layout and a tied
/// relabeling never enters the search. Each distinct candidate is priced
/// once for storage and once per using path for benefit:
///
///  - query_prefix (per use): the retrieval share of the subpath cost —
///    what the using path pays whether or not anybody else uses the index;
///  - maintain (per use): the maintenance + boundary share attributed by
///    that path's load. Occurrences of one entry describe the same physical
///    update stream, so a shared entry charges the *maximum* occurrence
///    (paid once);
///  - storage_bytes (per entry): structure-determined, charged once.
///
/// The pool is plain data after Build(): the joint optimizer never needs to
/// re-evaluate the cost model.

namespace pathix {

/// One path with its own workload. \p name is an optional caller-chosen
/// identifier (spec path names; the online subsystem's SimDatabase path
/// ids); empty when the workload is anonymous.
struct PathWorkload {
  std::string name;
  Path path;
  LoadDistribution load;
};

/// One workload path's use of a pool entry.
struct CandidateUse {
  int path_index = 0;  ///< which workload path
  Subpath subpath;     ///< the levels of that path the entry covers
  double query_prefix = 0;  ///< query + prefix share of the subpath cost
  double maintain = 0;      ///< maintain + boundary share (paid once if shared)
  SubpathCost breakdown;    ///< full decomposition, for reporting
};

/// One distinct physical index candidate across the workload.
struct CandidateEntry {
  StructuralKey key;
  std::string label;         ///< rendered from key — reporting only
  double storage_bytes = 0;  ///< estimated index bytes (max across uses)
  std::vector<CandidateUse> uses;
  bool shareable = false;  ///< used by >= 2 distinct workload paths
};

/// \brief Every indexable subpath of every workload path, structurally
/// deduplicated and priced.
class CandidatePool {
 public:
  /// An empty pool; usable only as an assignment target.
  CandidatePool() = default;

  /// Binds each path to the schema/catalog/load and prices all candidates
  /// (a one-shot CandidatePoolBuilder). Fails when any per-path context
  /// fails to build (missing statistics) or \p paths is empty.
  static Result<CandidatePool> Build(const Schema& schema,
                                     const Catalog& catalog,
                                     const std::vector<PathWorkload>& paths,
                                     const AdvisorOptions& options = {});

  int num_paths() const { return static_cast<int>(path_lengths_.size()); }
  int path_length(int path_index) const {
    PATHIX_DCHECK(path_index >= 0 && path_index < num_paths());
    return path_lengths_[static_cast<std::size_t>(path_index)];
  }
  const std::vector<IndexOrg>& orgs() const { return orgs_; }
  const std::vector<CandidateEntry>& entries() const { return entries_; }

  /// Pool entry covering \p sp of path \p path_index with \p org, or -1 when
  /// the pool holds no such candidate: \p org is not among the candidate
  /// organizations, or it is MX or NONE and \p sp spans several levels.
  int EntryFor(int path_index, const Subpath& sp, IndexOrg org) const;

  /// The priced use behind EntryFor (which must not be -1).
  const CandidateUse& UseFor(int path_index, const Subpath& sp,
                             IndexOrg org) const;

 private:
  friend class CandidatePoolBuilder;

  std::vector<CandidateEntry> entries_;
  std::vector<int> path_lengths_;
  std::vector<IndexOrg> orgs_;
  /// Per path: [subpath row][org column] -> {entry id, use index}.
  std::vector<std::vector<std::vector<std::pair<int, int>>>> lookup_;
};

/// \brief Builds CandidatePool instances, reusing the structural skeleton
/// and the load-independent unit costs (SubpathUnitCosts) across calls with
/// unchanged statistics — price once, reweigh per drift check.
///
/// The pool's shape (deduplicated entries, lookup tables, storage bytes)
/// and the per-use organization-model evaluations depend on the path set,
/// the catalog statistics and the physical parameters — never on the
/// drifting load estimates, which enter each use's price purely as linear
/// weights. A drift check with unchanged statistics therefore reweighs the
/// cached unit costs (zero model evaluations, zero dedup work). The
/// statistics fingerprint covers each path's structure, class statistics,
/// physical parameters and query profile. Every use's price equals the
/// uncached Cost_Matrix cell (CostMatrix::Build) on the same inputs
/// (tests/advisor/pool_cache_test.cc).
class CandidatePoolBuilder {
 public:
  /// As CandidatePool::Build: prices all candidates under the given loads.
  /// Re-evaluates the organization models only when the path set, the
  /// candidate organizations or the statistics fingerprint changed.
  Result<CandidatePool> Build(const Schema& schema, const Catalog& catalog,
                              const std::vector<PathWorkload>& paths,
                              const AdvisorOptions& options = {});

  /// Calls that had to rebuild the skeleton and re-evaluate the models.
  std::uint64_t model_rebuilds() const { return model_rebuilds_; }
  /// Calls served from the cached skeleton (reweigh only).
  std::uint64_t cache_hits() const { return cache_hits_; }

  /// Drops the cache (the next Build() re-evaluates the models).
  void Invalidate() { fingerprint_.clear(); }

 private:
  std::vector<double> fingerprint_;  ///< empty = no cached skeleton
  /// The priced-once skeleton: entries with keys/labels/storage/shareable
  /// and every use's (path, subpath) — cost fields zero, filled per call.
  CandidatePool skeleton_;
  /// Unit costs per entry, parallel to skeleton_.entries_[e].uses.
  std::vector<std::vector<SubpathUnitCosts>> unit_;
  std::uint64_t model_rebuilds_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace pathix
