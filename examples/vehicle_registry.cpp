// End-to-end walkthrough of the paper's own scenario (Figures 1, 2, 7):
// the vehicle registry. Builds the schema, loads a synthetic database,
// lets the advisor pick the optimal index configuration for
// Person.owns.man.divs.name, installs it *physically*, and demonstrates
// the page-access win over both naive navigation and single whole-path
// indexes — including the index maintenance the configuration was chosen
// to keep cheap.
//
//   $ ./examples/vehicle_registry

#include <iostream>

#include "core/advisor.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "exec/database.h"

int main() {
  using namespace pathix;

  // --- 1. Schema + synthetic database (1/20-scale Figure 7 shape).
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  const PathId people = "people";  // the paper's path, registered by id
  CheckOk(db.RegisterPath(people, setup.path));
  PathDataGenerator gen(7);
  auto created = gen.Populate(&db, setup.path,
                              {
                                  {setup.division, 400, 400, 1.0},
                                  {setup.company, 200, 0, 2.0},
                                  {setup.vehicle, 500, 0, 1.0},
                                  {setup.bus, 250, 0, 1.0},
                                  {setup.truck, 250, 0, 1.0},
                                  {setup.person, 10000, 0, 1.0},
                              });
  std::cout << "database: " << db.store().live_objects()
            << " objects across 6 classes\n";

  // --- 2. Statistics straight from the data (ANALYZE) + Figure 7's load.
  const Catalog catalog = CollectStatistics(db.store(), setup.schema,
                                            setup.path, PhysicalParams{});
  const Recommendation rec =
      AdviseIndexConfiguration(setup.schema, setup.path, catalog, setup.load)
          .value();
  std::cout << "advisor recommends: "
            << rec.result.config.ToString(setup.schema, setup.path)
            << "\n  expected cost " << rec.result.cost << " vs "
            << rec.whole_path_cost << " for a single whole-path "
            << ToString(rec.whole_path_org) << " (" << rec.improvement_factor
            << "x)\n\n";

  // --- 3. Install the recommendation physically and measure.
  CheckOk(db.ConfigureIndexes(people, rec.result.config));

  // Pick a division name that actually selects owners.
  Key fiat_like = Key::FromString(EndingValue(0));
  for (int i = 0; i < 400; ++i) {
    const Key candidate = Key::FromString(EndingValue(i));
    if (!db.Query(people, candidate, setup.person).value().empty()) {
      fiat_like = candidate;
      break;
    }
  }
  db.pager().ResetStats();
  const std::vector<Oid> owners =
      db.Query(people, fiat_like, setup.person).value();
  const AccessStats indexed = db.pager().stats();

  db.pager().ResetStats();
  const std::vector<Oid> owners_naive =
      db.QueryNaive(people, fiat_like, setup.person).value();
  const AccessStats naive = db.pager().stats();

  std::cout << "query: 'persons owning a vehicle manufactured by a company "
               "with a division named "
            << fiat_like.ToString() << "'\n"
            << "  result          : " << owners.size() << " persons (naive "
            << "agrees: " << (owners.size() == owners_naive.size() ? "yes" : "NO")
            << ")\n"
            << "  indexed         : " << indexed.total() << " page accesses\n"
            << "  naive navigation: " << naive.total() << " page accesses ("
            << (indexed.total() > 0 ? naive.total() / indexed.total() : 0)
            << "x)\n\n";

  // --- 4. Maintenance: the churny classes stay cheap under the split.
  db.pager().ResetStats();
  const Oid new_div = db.Insert(
      setup.division, {{"name", {Value::Str(EndingValue(5))}}});
  const AccessStats ins = db.pager().stats();
  db.pager().ResetStats();
  CheckOk(db.Delete(new_div));
  const AccessStats del = db.pager().stats();
  std::cout << "maintenance on the volatile tail (Division):\n"
            << "  insert: " << ins.total() << " page accesses\n"
            << "  delete: " << del.total() << " page accesses\n\n";

  // --- 5. Show the running system stays correct after updates.
  const Oid some_company = created[setup.company][3];
  db.pager().ResetStats();
  CheckOk(db.Delete(some_company));
  std::cout << "deleting a Company (cross-subpath boundary maintenance): "
            << db.pager().stats().total() << " page accesses\n";
  CheckOk(db.ValidateIndexesDeep());
  std::cout << "deep index validation after updates: OK\n";
  return 0;
}
