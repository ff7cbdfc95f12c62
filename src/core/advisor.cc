#include "core/advisor.h"

namespace pathix {

Recommendation AdviseIndexConfiguration(const PathContext& ctx,
                                        const AdvisorOptions& options) {
  Recommendation rec;
  rec.matrix = CostMatrix::Build(ctx, options.orgs);
  rec.result = SelectBranchAndBound(rec.matrix, options.capture_trace);

  for (const IndexedSubpath& part : rec.result.config.parts()) {
    rec.part_costs.push_back(ComputeSubpathCost(ctx, part.subpath.start,
                                                part.subpath.end, part.org));
    const double bytes =
        MakeOrgCostModel(part.org, ctx, part.subpath.start, part.subpath.end)
            ->StorageBytes();
    rec.part_storage_bytes.push_back(bytes);
    rec.total_storage_bytes += bytes;
  }

  const Subpath whole{1, ctx.n()};
  rec.whole_path_cost = rec.matrix.MinCost(whole);
  rec.whole_path_org = rec.matrix.MinOrg(whole);
  rec.improvement_factor =
      rec.result.cost > 0 ? rec.whole_path_cost / rec.result.cost : 1.0;
  return rec;
}

Result<Recommendation> AdviseIndexConfiguration(const Schema& schema,
                                                const Path& path,
                                                const Catalog& catalog,
                                                const LoadDistribution& load,
                                                const AdvisorOptions& options) {
  Result<PathContext> ctx = PathContext::Build(schema, path, catalog, load,
                                               options.query_profile);
  if (!ctx.ok()) return ctx.status();
  return AdviseIndexConfiguration(ctx.value(), options);
}

}  // namespace pathix
