// Golden digests of every part build on a churned population.
//
// The population is the two-path vehicle registry of perfbench at
// bench_serve_scale's size (a tenth of perfbench's), followed by a seeded
// insert/delete churn that deletes referenced objects (dangling references)
// and refills freed segment space. Every subpath of both paths is then
// built as MX, MIX, NIX and NONE, one part at a time, and folded into a
// 64-bit digest of what the public API shows:
//
//  - each tree's height, page counts, record count and every record;
//  - the part's build_io() and the deltas of the pager's kBuild tally and
//    allocated pages across the build;
//  - the counted pages and buffer-pool statistics of one sorted walk over
//    every key of each tree through a 4-frame pool, and the ids of the
//    part's pages left resident, so a page id that moved shows even where
//    the counts agree.
//
// A change to the build path must keep every upsert, page id and charge:
// each digest below has to stay as it is. On a mismatch the test prints
// the part and its digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "exec/database.h"
#include "index/mix_index.h"
#include "index/mx_index.h"
#include "index/nix_index.h"
#include "index/part_registry.h"
#include "io/spec_parser.h"

namespace pathix {
namespace {

constexpr const char* kSpec = R"(
class Person            2000 800 1 64
class Vehicle           300  250 3 64
class Bus     : Vehicle 150  140 2 64
class Truck   : Vehicle 150  140 2 64
class Company           40   40  3 64
class Division          40   40  1 64

ref Person  owns Vehicle  multi
ref Vehicle man  Company  multi
ref Company divs Division multi
attr Division name string

path people Person owns man divs name
path fleet Vehicle man divs name

orgs MX MIX NIX NONE

populate Person   2000 0  1.0
populate Vehicle  300  0  2.0
populate Bus      150  0  2.0
populate Truck    150  0  2.0
populate Company  40   0  3.0
populate Division 40   40 1.0

phase registry 1
mix people Person 1.0 0.0 0.0
)";

constexpr std::uint32_t kPopulationSeed = 1994;
constexpr std::uint32_t kChurnSeed = 31;
constexpr int kChurnOps = 1500;

/// FNV-1a over the bytes of every folded word.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Key& key) {
    Add(key.ToString());
    Add(key.bytes());
  }
  void Add(const AccessStats& s) {
    Add(s.reads);
    Add(s.writes);
    Add(s.buffer_hits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void FoldRecord(const PostingRecord& rec, Digest* d) {
  d->Add(rec.key());
  d->Add(rec.postings.size());
  for (const Posting& p : rec.postings) {
    d->Add(p.cls);
    d->Add(p.oid);
    d->Add(static_cast<std::uint64_t>(p.numchild));
  }
}

void FoldRecord(const AuxRecord& rec, Digest* d) {
  d->Add(rec.key());
  d->Add(rec.primary_keys.size());
  for (const Key& k : rec.primary_keys) d->Add(k);
  d->Add(rec.parents.size());
  for (Oid parent : rec.parents) d->Add(parent);
}

/// The page ids a part's build allocated: [first, last).
struct PageRange {
  PageId first = 0;
  PageId last = 0;
};

/// Folds \p tree's shape and records, then walks every key once through a
/// 4-frame pool and folds what the walk counted and which of \p pages it
/// left resident.
template <typename Record>
void FoldTree(BTree<Record>& tree, Pager& pager, PageRange pages,
              Digest* d) {
  d->Add(tree.name());
  d->Add(static_cast<std::uint64_t>(tree.height()));
  d->Add(tree.total_pages());
  d->Add(tree.leaf_pages());
  d->Add(tree.num_records());
  std::vector<Key> keys;
  tree.ForEach([&](const Record& rec) {
    FoldRecord(rec, d);
    keys.push_back(rec.key());
  });

  pager.EnableBuffer(4);
  const AccessStats before = pager.stats();
  const BufferPoolStats pool_before = pager.buffer_pool().GetStats();
  std::uint64_t visited = 0;
  tree.LookupSorted(keys, WholeRecord{}, [&](const Record&) { ++visited; });
  const AccessStats after = pager.stats();
  const BufferPoolStats pool_after = pager.buffer_pool().GetStats();
  for (PageId page = pages.first; page < pages.last; ++page) {
    if (pager.buffer_pool().Resident(page)) d->Add(page - pages.first);
  }
  pager.EnableBuffer(0);
  d->Add(visited);
  d->Add(after - before);
  d->Add(pool_after.read_hits - pool_before.read_hits);
  d->Add(pool_after.read_misses - pool_before.read_misses);
  d->Add(pool_after.write_hits - pool_before.write_hits);
  d->Add(pool_after.write_misses - pool_before.write_misses);
  d->Add(pool_after.evictions - pool_before.evictions);
  d->Add(pool_after.writebacks - pool_before.writebacks);
  d->Add(pool_after.pin_bypasses - pool_before.pin_bypasses);
}

/// Folds every tree of \p index (none for NONE).
void FoldIndex(SubpathIndex* index, Pager& pager, PageRange pages,
               Digest* d) {
  const SubpathIndexContext& ctx = index->context();
  d->Add(index->total_pages());
  if (auto* mx = dynamic_cast<MXIndex*>(index)) {
    for (int l = ctx.range.start; l <= ctx.range.end; ++l) {
      for (ClassId cls : ctx.hierarchy(l)) {
        FoldTree(mx->tree_for(l, cls)->tree(), pager, pages, d);
      }
    }
  } else if (auto* mix = dynamic_cast<MIXIndex*>(index)) {
    for (int l = ctx.range.start; l <= ctx.range.end; ++l) {
      FoldTree(mix->tree_for(l)->tree(), pager, pages, d);
    }
  } else if (auto* nix = dynamic_cast<NIXIndex*>(index)) {
    FoldTree(nix->primary(), pager, pages, d);
    FoldTree(nix->aux(), pager, pages, d);
  }
}

/// The registry population plus a seeded churn: deletes pick live objects
/// of any class (a deleted Vehicle, Company or Division leaves dangling
/// references behind), inserts add objects of any class whose references
/// may name deleted objects and whose Division names may repeat a value.
struct ChurnedDb {
  ChurnedDb() {
    Result<TraceSpec> parsed = ParseTraceSpec(kSpec);
    CheckOk(parsed.status());
    spec = std::move(parsed).value();
    db = std::make_unique<SimDatabase>(spec.schema, spec.catalog.params());
    std::vector<const Path*> paths;
    for (const TracePath& tp : spec.paths) {
      CheckOk(db->RegisterPath(tp.id, tp.path));
      paths.push_back(&tp.path);
    }
    std::vector<ClassGenSpec> gen;
    for (const TracePopulate& p : spec.populate) {
      gen.push_back(ClassGenSpec{p.cls, p.count, p.distinct_values, p.nin});
    }
    std::map<ClassId, std::vector<Oid>> live =
        PathDataGenerator(kPopulationSeed).Populate(db.get(), paths, gen);
    Churn(&live);
  }

  void Churn(std::map<ClassId, std::vector<Oid>>* live) {
    const Schema& schema = spec.schema;
    const ClassId person = schema.FindClass("Person");
    const ClassId company = schema.FindClass("Company");
    const ClassId division = schema.FindClass("Division");
    const std::vector<ClassId> vehicles = {schema.FindClass("Vehicle"),
                                           schema.FindClass("Bus"),
                                           schema.FindClass("Truck")};
    std::vector<ClassId> classes;
    for (const auto& [cls, oids] : *live) classes.push_back(cls);
    std::vector<Oid> ever_vehicles;
    for (ClassId v : vehicles) {
      ever_vehicles.insert(ever_vehicles.end(), (*live)[v].begin(),
                           (*live)[v].end());
    }
    std::vector<Oid> ever_companies = (*live)[company];
    std::vector<Oid> ever_divisions = (*live)[division];

    std::mt19937 rng(kChurnSeed);
    auto pick = [&rng](const std::vector<Oid>& from) {
      return from[rng() % from.size()];
    };
    auto refs = [&](const std::vector<Oid>& from, int max) {
      std::vector<Value> out;
      const int n = 1 + static_cast<int>(rng() % max);
      for (int i = 0; i < n; ++i) out.push_back(Value::Ref(pick(from)));
      return out;
    };
    for (int op = 0; op < kChurnOps; ++op) {
      const ClassId cls = classes[rng() % classes.size()];
      std::vector<Oid>& oids = (*live)[cls];
      if (rng() % 2 == 0 && oids.size() > 4) {
        const std::size_t at = rng() % oids.size();
        CheckOk(db->Delete(oids[at]));
        oids.erase(oids.begin() + static_cast<std::ptrdiff_t>(at));
        continue;
      }
      AttrValues attrs;
      if (cls == person) {
        attrs["owns"] = refs(ever_vehicles, 3);
      } else if (cls == company) {
        attrs["divs"] = refs(ever_divisions, 4);
      } else if (cls == division) {
        const std::string name = EndingValue(static_cast<int>(rng() % 48));
        attrs["name"] = {Value::Str(name)};
        if (rng() % 4 == 0) attrs["name"].push_back(Value::Str(name));
      } else {
        attrs["man"] = refs(ever_companies, 3);
      }
      const Oid oid = db->Insert(cls, std::move(attrs));
      oids.push_back(oid);
      if (cls == company) ever_companies.push_back(oid);
      if (cls == division) ever_divisions.push_back(oid);
      if (std::find(vehicles.begin(), vehicles.end(), cls) != vehicles.end()) {
        ever_vehicles.push_back(oid);
      }
    }
  }

  TraceSpec spec;
  std::unique_ptr<SimDatabase> db;
};

/// Expected digest per part, captured on the build code these digests pin.
const std::map<std::string, std::uint64_t>& Golden() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"people (1,1) MX", 0x1d5da5d04b6df203ULL},
      {"people (1,1) MIX", 0xd4daaa095e885e7fULL},
      {"people (1,1) NIX", 0xd7656a0d199eecf9ULL},
      {"people (1,1) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (1,2) MX", 0x243bcfecd788ba59ULL},
      {"people (1,2) MIX", 0x8a0976920256840eULL},
      {"people (1,2) NIX", 0x72168ae149afea85ULL},
      {"people (1,2) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (1,3) MX", 0x338cce5a13752a50ULL},
      {"people (1,3) MIX", 0x567bff1d34a2912aULL},
      {"people (1,3) NIX", 0xf672a66b2e0bfcbeULL},
      {"people (1,3) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (1,4) MX", 0xc7b3201f124c5d9eULL},
      {"people (1,4) MIX", 0xf12bcb0551f413caULL},
      {"people (1,4) NIX", 0x25f765c369f2940eULL},
      {"people (1,4) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (2,2) MX", 0xf5a8c53757c3d46fULL},
      {"people (2,2) MIX", 0xd60a683475a305c3ULL},
      {"people (2,2) NIX", 0xde4ff7b6580607d7ULL},
      {"people (2,2) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (2,3) MX", 0xb67385fdb24cce5ULL},
      {"people (2,3) MIX", 0xc60f2b247c155a6cULL},
      {"people (2,3) NIX", 0xefbc007509c69388ULL},
      {"people (2,3) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (2,4) MX", 0x5e7b26392965be5bULL},
      {"people (2,4) MIX", 0x5e2b53c526777d12ULL},
      {"people (2,4) NIX", 0x2c315465c80321cULL},
      {"people (2,4) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (3,3) MX", 0x218c1d556db4f8eeULL},
      {"people (3,3) MIX", 0xca5513e604f3df16ULL},
      {"people (3,3) NIX", 0x59d63fc0276fb3b4ULL},
      {"people (3,3) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (3,4) MX", 0x4efcd444187051aeULL},
      {"people (3,4) MIX", 0xd3ffe69298b26ea2ULL},
      {"people (3,4) NIX", 0x9fb8990d9b9e6f60ULL},
      {"people (3,4) NONE", 0xb9b23f3a46fd0825ULL},
      {"people (4,4) MX", 0xe6eec1407d5ca74dULL},
      {"people (4,4) MIX", 0xb1d97fbccd37912fULL},
      {"people (4,4) NIX", 0xf30540958ba7f71cULL},
      {"people (4,4) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (1,1) MX", 0xf5a8c53757c3d46fULL},
      {"fleet (1,1) MIX", 0xd60a683475a305c3ULL},
      {"fleet (1,1) NIX", 0xde4ff7b6580607d7ULL},
      {"fleet (1,1) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (1,2) MX", 0xb67385fdb24cce5ULL},
      {"fleet (1,2) MIX", 0xc60f2b247c155a6cULL},
      {"fleet (1,2) NIX", 0xefbc007509c69388ULL},
      {"fleet (1,2) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (1,3) MX", 0x5e7b26392965be5bULL},
      {"fleet (1,3) MIX", 0x5e2b53c526777d12ULL},
      {"fleet (1,3) NIX", 0x2c315465c80321cULL},
      {"fleet (1,3) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (2,2) MX", 0x218c1d556db4f8eeULL},
      {"fleet (2,2) MIX", 0xca5513e604f3df16ULL},
      {"fleet (2,2) NIX", 0x59d63fc0276fb3b4ULL},
      {"fleet (2,2) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (2,3) MX", 0x4efcd444187051aeULL},
      {"fleet (2,3) MIX", 0xd3ffe69298b26ea2ULL},
      {"fleet (2,3) NIX", 0x9fb8990d9b9e6f60ULL},
      {"fleet (2,3) NONE", 0xb9b23f3a46fd0825ULL},
      {"fleet (3,3) MX", 0xe6eec1407d5ca74dULL},
      {"fleet (3,3) MIX", 0xb1d97fbccd37912fULL},
      {"fleet (3,3) NIX", 0xf30540958ba7f71cULL},
      {"fleet (3,3) NONE", 0xb9b23f3a46fd0825ULL},
  };
  return golden;
}

TEST(PartBuildGoldenTest, EveryPartBuildsTheSameTreesPagesAndCharges) {
  ChurnedDb t;
  SimDatabase& db = *t.db;
  Pager& pager = db.pager();
  PhysicalPartRegistry registry;
  int parts = 0;
  for (const TracePath& tp : t.spec.paths) {
    const int n = tp.path.length();
    for (int s = 1; s <= n; ++s) {
      for (int e = s; e <= n; ++e) {
        for (IndexOrg org : {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                             IndexOrg::kNone}) {
          const std::string part = tp.id + " (" + std::to_string(s) + "," +
                                   std::to_string(e) + ") " + ToString(org);
          const AccessStats tally_before = pager.tally(PageOpKind::kBuild);
          const std::uint64_t pages_before = pager.allocated_pages();
          Result<std::shared_ptr<PhysicalPart>> built = registry.Acquire(
              &pager, db.schema(), tp.path,
              IndexedSubpath{Subpath{s, e}, org}, db.store());
          ASSERT_TRUE(built.ok()) << part << ": " << built.status().ToString();
          SubpathIndex* index = built.value()->index.get();
          Digest d;
          d.Add(index->build_io());
          d.Add(pager.tally(PageOpKind::kBuild) - tally_before);
          const PageRange pages{static_cast<PageId>(pages_before),
                                static_cast<PageId>(pager.allocated_pages())};
          d.Add(pages.last - pages.first);
          FoldIndex(index, pager, pages, &d);
          ASSERT_TRUE(index->Validate().ok()) << part;
          ++parts;

          const auto it = Golden().find(part);
          const bool known = it != Golden().end();
          EXPECT_TRUE(known && it->second == d.value())
              << "part " << part << " digest 0x" << std::hex << d.value()
              << std::dec << "\n    {\"" << part << "\", 0x" << std::hex
              << d.value() << std::dec << "ULL},";
        }
      }
    }
  }
  EXPECT_EQ(parts, 4 * (10 + 6));
}

}  // namespace
}  // namespace pathix
