#include "advisor/candidate_pool.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "costmodel/org_model.h"

namespace pathix {

namespace {

/// Everything one path's unit costs depend on, flattened: path structure,
/// class statistics, physical parameters, query profile — NOT the loads.
std::vector<double> Fingerprint(const PathContext& ctx) {
  std::vector<double> fp;
  const PhysicalParams& p = ctx.params();
  fp.insert(fp.end(),
            {static_cast<double>(ctx.n()), p.page_size, p.oid_len, p.ptr_len,
             p.key_len, p.rec_overhead, p.dir_entry_len, p.numchild_len,
             p.pr_override, p.pm_override, ctx.profile().matching_keys});
  for (int l = 1; l <= ctx.n(); ++l) {
    fp.push_back(ctx.KeyLenAt(l));
    fp.push_back(ctx.DistinctKeysLevel(l));
    const auto& level = ctx.level(l);
    fp.push_back(static_cast<double>(level.size()));
    for (const LevelClassInfo& c : level) {
      fp.insert(fp.end(), {static_cast<double>(c.cls), c.stats.n, c.stats.d,
                           c.stats.nin, c.stats.obj_len});
    }
  }
  return fp;
}

}  // namespace

Result<CandidatePool> CandidatePool::Build(
    const Schema& schema, const Catalog& catalog,
    const std::vector<PathWorkload>& paths, const AdvisorOptions& options) {
  return CandidatePoolBuilder().Build(schema, catalog, paths, options);
}

int CandidatePool::EntryFor(int path_index, const Subpath& sp,
                            IndexOrg org) const {
  PATHIX_DCHECK(path_index >= 0 && path_index < num_paths());
  const auto col_it = std::find(orgs_.begin(), orgs_.end(), org);
  if (col_it == orgs_.end()) return -1;
  const int row = SubpathRowIndex(path_length(path_index), sp);
  return lookup_[static_cast<std::size_t>(path_index)]
                [static_cast<std::size_t>(row)]
                [static_cast<std::size_t>(col_it - orgs_.begin())]
                    .first;
}

Result<CandidatePool> CandidatePoolBuilder::Build(
    const Schema& schema, const Catalog& catalog,
    const std::vector<PathWorkload>& paths, const AdvisorOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument("no paths given");
  }
  if (options.orgs.empty()) {
    return Status::InvalidArgument("no candidate organizations given");
  }

  // Contexts carry the current loads; built fresh each call (cheap —
  // catalog lookups, no model evaluations).
  std::vector<PathContext> ctxs;
  ctxs.reserve(paths.size());
  for (const PathWorkload& pw : paths) {
    Result<PathContext> ctx = PathContext::Build(schema, pw.path, catalog,
                                                 pw.load,
                                                 options.query_profile);
    if (!ctx.ok()) return ctx.status();
    ctxs.push_back(std::move(ctx).value());
  }

  // The statistics fingerprint: per-path structure/statistics plus the
  // candidate organization set. Loads are not in it — they are reweighed
  // below either way.
  std::vector<double> fp;
  fp.push_back(static_cast<double>(options.orgs.size()));
  for (const IndexOrg org : options.orgs) {
    fp.push_back(static_cast<double>(org));
  }
  for (const PathContext& ctx : ctxs) {
    const std::vector<double> part = Fingerprint(ctx);
    fp.push_back(static_cast<double>(part.size()));  // path delimiter
    fp.insert(fp.end(), part.begin(), part.end());
  }

  if (!fingerprint_.empty() && fp == fingerprint_) {
    ++cache_hits_;
  } else {
    ++model_rebuilds_;
    skeleton_ = CandidatePool();
    unit_.clear();
    skeleton_.orgs_ = options.orgs;
    std::map<StructuralKey, int> entry_ids;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const int n = ctxs[i].n();
      skeleton_.path_lengths_.push_back(n);
      const std::vector<Subpath> subpaths = EnumerateSubpaths(n);
      std::vector<std::vector<std::pair<int, int>>> path_lookup(
          subpaths.size(),
          std::vector<std::pair<int, int>>(options.orgs.size(), {-1, -1}));
      for (std::size_t row = 0; row < subpaths.size(); ++row) {
        const Subpath& sp = subpaths[row];
        for (std::size_t col = 0; col < options.orgs.size(); ++col) {
          const IndexOrg org = options.orgs[col];
          // A multi-level MX or NONE block is its per-level split, whose
          // single-level entries this loop already creates.
          if ((org == IndexOrg::kMX || org == IndexOrg::kNone) &&
              sp.length() > 1) {
            continue;
          }
          StructuralKey key = StructuralKey::ForSubpath(paths[i].path,
                                                        sp.start, sp.end, org);
          CandidateUse use;  // cost fields filled by the reweigh below
          use.path_index = static_cast<int>(i);
          use.subpath = sp;
          const double bytes =
              MakeOrgCostModel(org, ctxs[i], sp.start, sp.end)
                  ->StorageBytes();
          auto [it, inserted] = entry_ids.emplace(
              key, static_cast<int>(skeleton_.entries_.size()));
          if (inserted) {
            CandidateEntry entry;
            entry.key = std::move(key);
            entry.label = entry.key.Label(schema);
            skeleton_.entries_.push_back(std::move(entry));
            unit_.emplace_back();
          }
          const auto e = static_cast<std::size_t>(it->second);
          CandidateEntry& entry = skeleton_.entries_[e];
          entry.storage_bytes = std::max(entry.storage_bytes, bytes);
          path_lookup[row][col] = {it->second,
                                   static_cast<int>(entry.uses.size())};
          entry.uses.push_back(use);
          unit_[e].push_back(
              ComputeSubpathUnitCosts(ctxs[i], sp.start, sp.end, org));
        }
      }
      skeleton_.lookup_.push_back(std::move(path_lookup));
    }
    for (CandidateEntry& entry : skeleton_.entries_) {
      std::set<int> distinct;
      for (const CandidateUse& use : entry.uses) {
        distinct.insert(use.path_index);
      }
      entry.shareable = distinct.size() >= 2;
    }
    fingerprint_ = std::move(fp);
  }

  // Reweigh: copy the skeleton and price every use under the current
  // loads.
  CandidatePool pool = skeleton_;
  for (std::size_t e = 0; e < pool.entries_.size(); ++e) {
    CandidateEntry& entry = pool.entries_[e];
    for (std::size_t u = 0; u < entry.uses.size(); ++u) {
      CandidateUse& use = entry.uses[u];
      const auto& ctx = ctxs[static_cast<std::size_t>(use.path_index)];
      use.breakdown = WeighSubpathCost(unit_[e][u], ctx, use.subpath.start,
                                       use.subpath.end);
      use.query_prefix = use.breakdown.query + use.breakdown.prefix;
      use.maintain = use.breakdown.maintain + use.breakdown.boundary;
    }
  }
  return pool;
}

const CandidateUse& CandidatePool::UseFor(int path_index, const Subpath& sp,
                                          IndexOrg org) const {
  PATHIX_DCHECK(path_index >= 0 && path_index < num_paths());
  const auto col_it = std::find(orgs_.begin(), orgs_.end(), org);
  PATHIX_DCHECK(col_it != orgs_.end());
  const int row = SubpathRowIndex(path_length(path_index), sp);
  const auto [entry, use] = lookup_[static_cast<std::size_t>(path_index)]
                                   [static_cast<std::size_t>(row)]
                                   [static_cast<std::size_t>(
                                       col_it - orgs_.begin())];
  PATHIX_DCHECK(entry >= 0);
  return entries_[static_cast<std::size_t>(entry)]
      .uses[static_cast<std::size_t>(use)];
}

}  // namespace pathix
