// Multi-path tuning (the paper's "further research" extension, Section 6):
// several applications hit the same schema through different but
// overlapping paths. PathIx optimizes each path and then merges physically
// identical indexed subpaths so storage and maintenance are paid once.
//
//   $ ./examples/multipath_tuning

#include <iostream>

#include "core/multipath.h"
#include "datagen/paper_schema.h"

int main() {
  using namespace pathix;

  PaperSetup setup = MakeExample51Setup();

  // Path 1: the paper's Pexa — persons by division name.
  PathWorkload full{"", setup.path, setup.load};

  // Path 2: Pe from Example 2.1 — persons by manufacturer name... the
  // schema routes it through the same prefix Person.owns.man.
  LoadDistribution audit_load;
  audit_load.Set(setup.company, 0.5, 0.05, 0.05);
  audit_load.Set(setup.vehicle, 0.3, 0.0, 0.05);
  audit_load.Set(setup.division, 0.15, 0.1, 0.05);
  PathWorkload audit{
      "",
      Path::Create(setup.schema, setup.vehicle, {"man", "divs", "name"})
          .value(),
      audit_load};

  // Path 3: division lookups by name only (a subpath of both).
  LoadDistribution div_load;
  div_load.Set(setup.division, 0.8, 0.1, 0.1);
  PathWorkload divisions{
      "",
      Path::Create(setup.schema, setup.company, {"divs", "name"}).value(),
      div_load};

  const MultiPathRecommendation rec =
      AdviseMultiplePaths(setup.schema, setup.catalog,
                          {full, audit, divisions})
          .value();

  std::cout << "=== Multi-path index selection over "
            << rec.per_path.size() << " paths ===\n\n";
  const PathWorkload* inputs[] = {&full, &audit, &divisions};
  for (std::size_t i = 0; i < rec.per_path.size(); ++i) {
    const Recommendation& r = rec.per_path[i];
    std::cout << "path " << i + 1 << ": "
              << inputs[i]->path.ToString(setup.schema) << "\n"
              << "  optimal: "
              << r.result.config.ToString(setup.schema, inputs[i]->path)
              << "  (cost " << r.result.cost << ")\n";
  }

  std::cout << "\nshared physical indexes discovered:\n";
  if (rec.shared.empty()) {
    std::cout << "  (none — the optima chose disjoint subpath indexes)\n";
  }
  for (const SharedIndex& s : rec.shared) {
    std::cout << "  " << s.label << " shared by paths";
    for (int p : s.path_indexes) std::cout << " " << p + 1;
    std::cout << "  (saves " << s.saved_cost << " maintenance accesses)\n";
  }

  std::cout << "\ntotal cost, independent optima : "
            << rec.total_cost_independent
            << "\ntotal cost, shared indexes     : " << rec.total_cost_shared
            << "\n\n(The merge is a documented greedy heuristic — the paper "
               "leaves multi-path\nselection to future work; see README, "
               "\"Workload advisor\".)\n";
  return 0;
}
