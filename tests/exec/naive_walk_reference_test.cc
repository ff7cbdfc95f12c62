// Navigational walks against copies of the walks they replaced.
//
// NaiveEvaluator and NoneIndex::Probe share one PathWalk: every class below
// the target level is listed once, objects are found by oid in a flat table
// that carries the memo, and pages are charged through a bitmap. The
// references below are test-local copies of the walks that came before:
// PeekRef on every visit, an unordered_map memo (naive) or none at all
// (NONE), a set of charged pages.
//
// The population is perfbench's two-path vehicle registry at
// bench_serve_scale's size, followed by a seeded insert/delete churn that
// deletes referenced objects (dangling references) and inserts Buses and
// Trucks (subclass objects). Every comparison requires the same oids in the
// same order and the same charges: equal AccessStats with the pool off,
// and equal AccessStats, BufferPoolStats and resident pages through a
// 4-frame pool, which pins the order of the charges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/generator.h"
#include "exec/database.h"
#include "exec/naive_evaluator.h"
#include "index/none_index.h"
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
constexpr std::uint32_t kChurnSeed = 32;
constexpr int kChurnOps = 800;

// ------------------------------------------------------------ references

/// The naive walk before PathWalk: PeekRef per visit, a memo by oid, a set
/// of charged pages.
class ReferenceNaiveRun {
 public:
  ReferenceNaiveRun(const ObjectStore& store, const Path& path,
                    const Key& value, Pager* pager)
      : store_(store), path_(path), value_(value), pager_(pager) {}

  bool Reaches(Oid oid, int level) {
    auto memo = memo_.find(oid);
    if (memo != memo_.end()) return memo->second;
    ChargePage(store_.PageOf(oid));
    const std::shared_ptr<const Object> obj = store_.PeekRef(oid);
    bool hit = false;
    if (obj != nullptr) {
      const std::string& attr = path_.attribute_at(level).name;
      if (level == path_.length()) {
        for (const Value& v : obj->values(attr)) {
          if (Key::FromValue(v) == value_) {
            hit = true;
            break;
          }
        }
      } else {
        for (Oid child : obj->refs(attr)) {
          if (Reaches(child, level + 1)) {
            hit = true;
            break;
          }
        }
      }
    }
    memo_[oid] = hit;
    return hit;
  }

  void ChargeSegment(ClassId cls) {
    for (Oid oid : store_.PeekAll(cls)) ChargePage(store_.PageOf(oid));
  }

 private:
  void ChargePage(PageId page) {
    if (page == kInvalidPage) return;
    if (charged_.insert(page).second) pager_->NoteRead(page);
  }

  const ObjectStore& store_;
  const Path& path_;
  Key value_;
  Pager* pager_;
  std::unordered_set<PageId> charged_;
  std::unordered_map<Oid, bool> memo_;
};

std::vector<Oid> ReferenceNaive(const ObjectStore& store, const Schema& schema,
                                const Path& path, const Key& value,
                                ClassId target_class, bool include_subclasses,
                                Pager* pager) {
  int target_level = 0;
  for (int l = 1; l <= path.length() && target_level == 0; ++l) {
    if (schema.IsSameOrSubclassOf(target_class, path.class_at(l))) {
      target_level = l;
    }
  }
  ReferenceNaiveRun run(store, path, value, pager);
  const std::vector<ClassId> targets =
      include_subclasses ? schema.HierarchyOf(target_class)
                         : std::vector<ClassId>{target_class};
  std::vector<Oid> out;
  for (ClassId cls : targets) {
    run.ChargeSegment(cls);
    for (Oid oid : store.PeekAll(cls)) {
      if (run.Reaches(oid, target_level)) out.push_back(oid);
    }
  }
  return out;
}

/// The NONE walk before PathWalk: no memo, a set of charged pages, a
/// dangling-reference test on every ending reference.
class ReferenceNoneProbe {
 public:
  ReferenceNoneProbe(const ObjectStore& store, const SubpathIndexContext& ctx,
                     Pager* pager)
      : store_(store), ctx_(ctx), pager_(pager) {}

  std::vector<Oid> Probe(const std::vector<Key>& keys, int target_level,
                         const std::vector<ClassId>& target_classes) {
    std::vector<Oid> out;
    std::set<PageId> charged;
    for (ClassId cls : target_classes) {
      for (Oid oid : store_.PeekAll(cls)) {
        Charge(store_.PageOf(oid), &charged);
        if (Reaches(oid, target_level, keys, &charged)) out.push_back(oid);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void Charge(PageId page, std::set<PageId>* charged) {
    if (page != kInvalidPage && charged->insert(page).second) {
      pager_->NoteRead(page);
    }
  }

  bool Reaches(Oid oid, int level, const std::vector<Key>& keys,
               std::set<PageId>* charged) {
    Charge(store_.PageOf(oid), charged);
    const std::shared_ptr<const Object> obj = store_.PeekRef(oid);
    if (obj == nullptr) return false;
    const std::string& attr = ctx_.attr_name(level);
    if (level == ctx_.range.end) {
      for (const Value& v : obj->values(attr)) {
        if (v.kind() == Value::Kind::kRef &&
            store_.PeekRef(v.as_ref()) == nullptr) {
          continue;
        }
        const Key k = Key::FromValue(v);
        if (std::find(keys.begin(), keys.end(), k) != keys.end()) return true;
      }
      return false;
    }
    for (Oid child : obj->refs(attr)) {
      if (Reaches(child, level + 1, keys, charged)) return true;
    }
    return false;
  }

  const ObjectStore& store_;
  SubpathIndexContext ctx_;
  Pager* pager_;
};

// ------------------------------------------------------------ observation

/// What one walk returned and charged, with the pool off and through a
/// 4-frame pool; with a sweep, also the pages resident after the walk
/// through a pool of each capacity from 1 to the pages it charged. A walk
/// charges each page once, so every charge misses and the pool evicts in
/// charge order: the sweep's sets spell out the charge sequence.
struct Observed {
  std::vector<Oid> oids;
  AccessStats cold;
  AccessStats pooled;
  BufferPoolStats pool;
  std::vector<PageId> resident;
  std::vector<std::vector<PageId>> resident_by_capacity;
};

std::vector<PageId> ResidentPages(const Pager& pager) {
  std::vector<PageId> out;
  for (PageId page = 0; page < pager.allocated_pages(); ++page) {
    if (pager.buffer_pool().Resident(page)) out.push_back(page);
  }
  return out;
}

template <typename Walk>
Observed Observe(Pager& pager, Walk walk, bool sweep = false) {
  Observed o;
  AccessStats before = pager.stats();
  o.oids = walk();
  o.cold = pager.stats() - before;

  pager.EnableBuffer(4);
  before = pager.stats();
  const BufferPoolStats pool_before = pager.buffer_pool().GetStats();
  EXPECT_EQ(walk(), o.oids);
  const BufferPoolStats pool_after = pager.buffer_pool().GetStats();
  o.pooled = pager.stats() - before;
  o.pool.read_hits = pool_after.read_hits - pool_before.read_hits;
  o.pool.read_misses = pool_after.read_misses - pool_before.read_misses;
  o.pool.evictions = pool_after.evictions - pool_before.evictions;
  o.pool.writebacks = pool_after.writebacks - pool_before.writebacks;
  o.pool.pin_bypasses = pool_after.pin_bypasses - pool_before.pin_bypasses;
  o.resident = ResidentPages(pager);
  pager.EnableBuffer(0);

  for (std::uint64_t capacity = 1; sweep && capacity <= o.cold.reads;
       ++capacity) {
    pager.EnableBuffer(capacity);
    walk();
    o.resident_by_capacity.push_back(ResidentPages(pager));
    pager.EnableBuffer(0);
  }
  return o;
}

void ExpectSame(const Observed& want, const Observed& got,
                const std::string& what) {
  EXPECT_EQ(got.oids, want.oids) << what;
  EXPECT_EQ(got.cold, want.cold)
      << what << ": reads " << got.cold.reads << " vs " << want.cold.reads;
  EXPECT_EQ(got.pooled, want.pooled) << what;
  EXPECT_EQ(got.pool.read_hits, want.pool.read_hits) << what;
  EXPECT_EQ(got.pool.read_misses, want.pool.read_misses) << what;
  EXPECT_EQ(got.pool.evictions, want.pool.evictions) << what;
  EXPECT_EQ(got.pool.writebacks, want.pool.writebacks) << what;
  EXPECT_EQ(got.pool.pin_bypasses, want.pool.pin_bypasses) << what;
  EXPECT_EQ(got.resident, want.resident) << what;
  EXPECT_EQ(got.resident_by_capacity, want.resident_by_capacity) << what;
}

// ------------------------------------------------------------ population

/// The registry population plus a seeded churn. Each op picks a class in
/// proportion to its live objects, then deletes one of them (a deleted
/// Vehicle, Company or Division leaves dangling references behind) or
/// inserts one, Buses and Trucks included, whose references may name
/// deleted objects.
struct ChurnedDb {
  ChurnedDb() {
    Result<TraceSpec> parsed = ParseTraceSpec(kSpec);
    CheckOk(parsed.status());
    spec = std::move(parsed).value();
    db = std::make_unique<SimDatabase>(spec.schema, spec.catalog.params());
    std::vector<const Path*> paths;
    for (const TracePath& tp : spec.paths) paths.push_back(&tp.path);
    std::vector<ClassGenSpec> gen;
    for (const TracePopulate& p : spec.populate) {
      gen.push_back(ClassGenSpec{p.cls, p.count, p.distinct_values, p.nin});
    }
    live = PathDataGenerator(kPopulationSeed).Populate(db.get(), paths, gen);
    Churn();
  }

  ClassId Class(const char* name) const {
    return spec.schema.FindClass(name);
  }

  void Churn() {
    const ClassId person = Class("Person");
    const ClassId company = Class("Company");
    const ClassId division = Class("Division");
    const std::vector<ClassId> vehicles = {Class("Vehicle"), Class("Bus"),
                                           Class("Truck")};
    std::vector<Oid> ever_vehicles;
    for (ClassId v : vehicles) {
      ever_vehicles.insert(ever_vehicles.end(), live[v].begin(),
                           live[v].end());
    }
    std::vector<Oid> ever_companies = live[company];
    std::vector<Oid> ever_divisions = live[division];

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
      std::size_t total = 0;
      for (const auto& [cls, oids] : live) total += oids.size();
      std::size_t at_object = rng() % total;
      auto picked = live.begin();
      while (at_object >= picked->second.size()) {
        at_object -= picked->second.size();
        ++picked;
      }
      const ClassId cls = picked->first;
      std::vector<Oid>& oids = picked->second;
      if (rng() % 2 == 0 && oids.size() > 4) {
        const std::size_t at = rng() % oids.size();
        deleted.push_back(oids[at]);
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
        attrs["name"] = {Value::Str(EndingValue(static_cast<int>(rng() % 48)))};
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
  std::map<ClassId, std::vector<Oid>> live;
  std::vector<Oid> deleted;
};

/// Ending values to query: the names of three live Divisions of the
/// population, of the last one the churn inserted, and a name nobody holds.
std::vector<std::string> EndingValues(ChurnedDb& t) {
  const std::vector<Oid>& divisions = t.live[t.Class("Division")];
  std::vector<std::string> out;
  for (Oid oid : {divisions[0], divisions[1], divisions[2], divisions.back()}) {
    out.push_back(t.db->store().Peek(oid)->values("name")[0].as_string());
  }
  out.push_back("absent");
  return out;
}

// ------------------------------------------------------------------ tests

TEST(NaiveWalkReferenceTest, NaiveQueriesMatchTheReferenceWalk) {
  ChurnedDb t;
  SimDatabase& db = *t.db;
  const Schema& schema = db.schema();
  int compared = 0;
  int nonempty = 0;
  for (const TracePath& tp : t.spec.paths) {
    NaiveEvaluator eval(&db.store(), &schema, &tp.path);
    for (ClassId target : tp.path.Scope(schema)) {
      for (bool subclasses : {false, true}) {
        for (const std::string& value : EndingValues(t)) {
          const Key key = Key::FromString(value);
          const std::string what = tp.id + " " +
                                   schema.GetClass(target).name() +
                                   (subclasses ? "+ " : " ") + value;
          const bool sweep = compared % 7 == 0;
          const Observed want = Observe(
              db.pager(),
              [&] {
                return ReferenceNaive(db.store(), schema, tp.path, key,
                                      target, subclasses, &db.pager());
              },
              sweep);
          const Observed got = Observe(
              db.pager(),
              [&] {
                return eval.Evaluate(key, target, subclasses, &db.pager());
              },
              sweep);
          ExpectSame(want, got, what);
          ++compared;
          if (!want.oids.empty()) ++nonempty;
        }
      }
    }
  }
  // Both paths' scopes, both subclass settings, every value.
  EXPECT_EQ(compared, (6 + 5) * 2 * 5);
  EXPECT_GT(nonempty, compared / 2);
}

TEST(NaiveWalkReferenceTest, NoneProbesMatchTheReferenceWalk) {
  ChurnedDb t;
  SimDatabase& db = *t.db;
  const Schema& schema = db.schema();
  const Path& path = t.spec.paths.front().path;  // people: 4 levels
  std::mt19937 rng(5);
  int compared = 0;
  int nonempty = 0;
  for (int s = 1; s <= path.length(); ++s) {
    for (int e = s; e <= path.length(); ++e) {
      const SubpathIndexContext ctx{&schema, &path, Subpath{s, e}};
      NoneIndex part(&db.pager(), ctx);
      part.Build(db.store());
      ReferenceNoneProbe reference(db.store(), ctx, &db.pager());

      // Keys of A_e: ending values, or oids of level e+1 — live, deleted
      // (still referenced: dangling) and never issued.
      std::vector<std::vector<Key>> key_sets;
      if (e == path.length()) {
        for (const std::string& v : EndingValues(t)) {
          key_sets.push_back({Key::FromString(v)});
        }
        std::vector<Key> many;
        for (int i = 0; i < 48; i += 3) {
          many.push_back(Key::FromString(EndingValue(i)));
        }
        many.push_back(Key::FromString("absent"));
        key_sets.push_back(many);
      } else {
        std::vector<Oid> below;
        for (ClassId cls : ctx.hierarchy(e + 1)) {
          below.insert(below.end(), t.live[cls].begin(), t.live[cls].end());
        }
        key_sets.push_back({Key::FromOid(below[rng() % below.size()])});
        key_sets.push_back({Key::FromOid(t.deleted[rng() % t.deleted.size()])});
        key_sets.push_back({Key::FromOid(Oid{1} << 40)});
        std::vector<Key> many;
        for (int i = 0; i < 12; ++i) {
          many.push_back(Key::FromOid(below[rng() % below.size()]));
        }
        for (Oid gone : t.deleted) many.push_back(Key::FromOid(gone));
        key_sets.push_back(many);
      }

      for (std::vector<Key>& keys : key_sets) {
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (int target_level = s; target_level <= e; ++target_level) {
          // The whole hierarchy, then each of its classes alone.
          std::vector<std::vector<ClassId>> target_sets = {
              ctx.hierarchy(target_level)};
          if (target_sets.front().size() > 1) {
            for (ClassId cls : ctx.hierarchy(target_level)) {
              target_sets.push_back({cls});
            }
          }
          for (const std::vector<ClassId>& targets : target_sets) {
            const std::string what =
                "(" + std::to_string(s) + "," + std::to_string(e) +
                ") level " + std::to_string(target_level) + " " +
                schema.GetClass(targets.front()).name() +
                (targets.size() > 1 ? "+" : "") + " " +
                std::to_string(keys.size()) + " keys from " +
                keys.front().ToString();
            const bool sweep = compared % 7 == 0;
            const Observed want = Observe(
                db.pager(),
                [&] { return reference.Probe(keys, target_level, targets); },
                sweep);
            const Observed got = Observe(
                db.pager(),
                [&] { return part.Probe(keys, target_level, targets); },
                sweep);
            ExpectSame(want, got, what);
            ++compared;
            if (!want.oids.empty()) ++nonempty;
          }
        }
      }
    }
  }
  // Ten parts; per part its key sets times its target sets.
  EXPECT_EQ(compared, 184);
  EXPECT_GT(nonempty, compared / 4);
}

TEST(NaiveWalkReferenceTest, ReferencesAgainstTheirDomainsKeepTheMemo) {
  // References the schema's domains do not allow: new Companies whose
  // `divs` name a Division, a Person, a Vehicle and a Truck, new Buses
  // whose `man` names one of them and a Person, and new Persons owning the
  // Buses. Walking Vehicle+ targets, a Bus's walk meets a Vehicle already
  // walked as a target and a Truck not walked yet; Persons and Vehicles
  // are met below their own levels too. The memo by oid must answer each
  // visit the way the reference walk's memo does. (The NONE walk before
  // PathWalk had no memo, so only the naive walk is compared here.)
  ChurnedDb t;
  SimDatabase& db = *t.db;
  const Schema& schema = db.schema();
  const std::vector<Oid> people = t.live[t.Class("Person")];
  const std::vector<Oid> vehicles = t.live[t.Class("Vehicle")];
  const std::vector<Oid> trucks = t.live[t.Class("Truck")];
  const std::vector<Oid> divisions = t.live[t.Class("Division")];
  std::mt19937 rng(9);
  const auto any = [&rng](const std::vector<Oid>& from) {
    return Value::Ref(from[rng() % from.size()]);
  };
  std::vector<Oid> buses;
  for (int i = 0; i < 30; ++i) {
    const Oid company =
        db.Insert(t.Class("Company"), {{"divs",
                                        {any(divisions), any(people),
                                         any(vehicles), any(trucks)}}});
    buses.push_back(db.Insert(t.Class("Bus"),
                              {{"man", {Value::Ref(company), any(people)}}}));
  }
  for (int i = 0; i < 60; ++i) {
    db.Insert(t.Class("Person"), {{"owns", {any(buses)}}});
  }

  for (const TracePath& tp : t.spec.paths) {
    NaiveEvaluator eval(&db.store(), &schema, &tp.path);
    for (ClassId target : tp.path.Scope(schema)) {
      for (const std::string& value : EndingValues(t)) {
        const Key key = Key::FromString(value);
        const std::string what =
            tp.id + " " + schema.GetClass(target).name() + " " + value;
        const bool sweep = value == EndingValues(t).front();
        const Observed want = Observe(
            db.pager(),
            [&] {
              return ReferenceNaive(db.store(), schema, tp.path, key, target,
                                    /*include_subclasses=*/true, &db.pager());
            },
            sweep);
        const Observed got = Observe(
            db.pager(),
            [&] {
              return eval.Evaluate(key, target, /*include_subclasses=*/true,
                                   &db.pager());
            },
            sweep);
        ExpectSame(want, got, what);
      }
    }
  }
}

}  // namespace
}  // namespace pathix
