#include "index/nix_index.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

namespace pathix {

namespace {

PostingRecord MakePostingRecord(const Key& key) {
  PostingRecord rec;
  rec.key_value = key;
  return rec;
}

AuxRecord MakeAuxRecord(Oid oid) {
  AuxRecord rec;
  rec.key_value = Key::FromOid(oid);
  return rec;
}

/// Bytes of the slices of \p rec holding the postings of \p classes
/// (distinct class ids), plus the record header/directory (what a partial
/// read must fetch).
template <typename ClassContainer>
std::size_t SliceBytes(const PostingRecord& rec,
                       const ClassContainer& classes) {
  std::size_t bytes = rec.key_value.bytes() + 16;
  for (ClassId cls : classes) {
    bytes += rec.Slice(cls).size() * Posting::kBytes;
  }
  return bytes;
}

/// Chain pages a class-slice maintenance touches (pmd_NIX = prd_NIX).
template <typename ClassContainer>
std::size_t SlicePages(const PostingRecord& rec,
                       const ClassContainer& classes, double page_size) {
  return static_cast<std::size_t>(
      CeilDiv(static_cast<double>(SliceBytes(rec, classes)), page_size));
}

}  // namespace

NIXIndex::NIXIndex(Pager* pager, SubpathIndexContext ctx)
    : SubpathIndex(pager, std::move(ctx)),
      primary_(pager, "nix.primary"),
      aux_(pager, "nix.aux") {}

// --------------------------------------------------------------- reach

NIXIndex::ReachSet NIXIndex::ComputeReachFromStore(const ObjectStore& store,
                                                   const Object& obj,
                                                   int level) const {
  ReachSet reach;
  const std::string& attr = ctx_.attr_name(level);
  if (level == ctx_.range.end) {
    for (const Value& v : obj.values(attr)) {
      // A reference to a deleted object is dangling: the key record was
      // dropped by the boundary deletion (Definition 4.2) and must not be
      // counted as reachable.
      if (v.kind() == Value::Kind::kRef &&
          store.Peek(v.as_ref()) == nullptr) {
        continue;
      }
      reach[Key::FromValue(v)] += 1;
    }
    return reach;
  }
  for (Oid child : obj.refs(attr)) {
    const Object* child_obj = store.Peek(child);
    if (child_obj == nullptr) continue;
    const ReachSet child_reach =
        ComputeReachFromStore(store, *child_obj, level + 1);
    for (const auto& [key, nc] : child_reach) {
      (void)nc;
      reach[key] += 1;  // numchild counts children, not paths
    }
  }
  return reach;
}

NIXIndex::ReachSet NIXIndex::ComputeReach(const Object& obj, int level) {
  ReachSet reach;
  const std::string& attr = ctx_.attr_name(level);
  if (level == ctx_.range.end) {
    for (const Value& v : obj.values(attr)) {
      reach[Key::FromValue(v)] += 1;
    }
    return reach;
  }
  // Inner level: the children's aux 3-tuples hold their primary-record
  // pointers, i.e. exactly their reach sets (Section 3.1, insertion step 2).
  for (Oid child : obj.refs(attr)) {
    if (const AuxRecord* tuple = aux_.Lookup(Key::FromOid(child))) {
      for (const Key& key : tuple->primary_keys) {
        reach[key] += 1;
      }
    }
  }
  return reach;
}

// --------------------------------------------------------------- build

namespace {

/// One (value, numchild) entry of an object's reach set during a build:
/// \p value indexes the build's sorted distinct ending values, so a reach
/// set sorted by it is in key order.
struct ReachEntry {
  std::uint32_t value;
  std::int32_t numchild;
};

/// Sorts \p values and appends one entry per distinct value, its count as
/// numchild, to \p out.
void AppendCounted(std::vector<std::uint32_t>* values,
                   std::vector<ReachEntry>* out) {
  std::sort(values->begin(), values->end());
  for (std::size_t i = 0; i < values->size();) {
    std::size_t j = i + 1;
    while (j < values->size() && (*values)[j] == (*values)[i]) ++j;
    out->push_back(ReachEntry{(*values)[i], static_cast<std::int32_t>(j - i)});
    i = j;
  }
}

}  // namespace

void NIXIndex::BuildImpl(const ObjectStore& store) {
  // The scope's objects per level, class by class, each list read once
  // under its shard lock and kept for both passes.
  struct ClassObjects {
    ClassId cls;
    std::vector<PlacedObject> objects;
  };
  const auto level_index = [&](int l) {
    return static_cast<std::size_t>(l - ctx_.range.start);
  };
  std::vector<std::vector<ClassObjects>> scope(
      level_index(ctx_.range.end) + 1);
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    for (ClassId cls : ctx_.hierarchy(l)) {
      scope[level_index(l)].push_back(
          ClassObjects{cls, store.PeekAllPlaced(cls)});
    }
  }

  // The ending values each ending-level object reaches, in object order,
  // and the sorted distinct ones, which reach sets name by index. A
  // reference to a deleted object is dangling — its key record was dropped
  // by the boundary deletion (Definition 4.2) — and is not reachable.
  const std::string& end_attr = ctx_.attr_name(ctx_.range.end);
  std::vector<Key> end_keys;
  std::vector<std::size_t> end_counts;
  for (const ClassObjects& c : scope[level_index(ctx_.range.end)]) {
    for (const PlacedObject& p : c.objects) {
      const std::size_t before = end_keys.size();
      for (const Value& v : p.obj->values(end_attr)) {
        if (v.kind() == Value::Kind::kRef && !store.Contains(v.as_ref())) {
          continue;
        }
        end_keys.push_back(Key::FromValue(v));
      }
      end_counts.push_back(end_keys.size() - before);
    }
  }
  std::vector<Key> values = end_keys;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // Ground-truth reachability per object, bottom-up: each reach set is a
  // run of `entries` sorted by value (so in key order), built by sorting
  // and counting the values it reaches. Parents come from the forward
  // references of the level above, as (child, parent) links in discovery
  // order.
  struct Run {
    std::size_t begin;
    std::size_t size;
  };
  std::vector<ReachEntry> entries;
  std::unordered_map<Oid, Run> reach;
  std::vector<std::pair<Oid, Oid>> links;
  std::vector<std::uint32_t> scratch;
  std::size_t next_end_key = 0;
  std::size_t next_end_object = 0;
  for (int l = ctx_.range.end; l >= ctx_.range.start; --l) {
    const std::string& attr = ctx_.attr_name(l);
    for (const ClassObjects& c : scope[level_index(l)]) {
      for (const PlacedObject& p : c.objects) {
        const Object& obj = *p.obj;
        scratch.clear();
        if (l == ctx_.range.end) {
          for (std::size_t n = end_counts[next_end_object++]; n > 0; --n) {
            scratch.push_back(static_cast<std::uint32_t>(
                std::lower_bound(values.begin(), values.end(),
                                 end_keys[next_end_key++]) -
                values.begin()));
          }
        } else {
          for (const Value& v : obj.values(attr)) {
            if (v.kind() != Value::Kind::kRef) continue;
            const auto it = reach.find(v.as_ref());
            if (it == reach.end()) continue;
            // numchild counts children, not paths: a child's run lists
            // each of its values once.
            for (std::size_t i = 0; i < it->second.size; ++i) {
              scratch.push_back(entries[it->second.begin + i].value);
            }
            links.emplace_back(v.as_ref(), obj.oid);
          }
        }
        const std::size_t begin = entries.size();
        AppendCounted(&scratch, &entries);
        reach[obj.oid] = Run{begin, entries.size() - begin};
      }
    }
  }
  const auto by_child = [](const std::pair<Oid, Oid>& a,
                           const std::pair<Oid, Oid>& b) {
    return a.first < b.first;
  };
  std::stable_sort(links.begin(), links.end(), by_child);

  // Top-down, in the store's order: every reached primary record gains the
  // object's posting, in key order, and a non-root object gets its 3-tuple.
  // Neither the hierarchy's class order nor the store's order (concurrent
  // inserts can append out of oid order) need be the postings' (cls, oid)
  // order, so the posting goes to its place in the record, not to the end.
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    for (const ClassObjects& c : scope[level_index(l)]) {
      for (const PlacedObject& p : c.objects) {
        const Oid oid = p.obj->oid;
        const Run run = reach.at(oid);
        const std::span<const ReachEntry> mine =
            std::span<const ReachEntry>(entries).subspan(run.begin, run.size);
        for (const ReachEntry& e : mine) {
          const Key& key = values[e.value];
          primary_.Upsert(
              key, [&] { return MakePostingRecord(key); },
              [&](PostingRecord* rec) {
                rec->AddOrBump(c.cls, oid, e.numchild);
              });
        }
        if (!HasAuxTuple(l)) continue;
        const auto parents = std::equal_range(
            links.begin(), links.end(), std::pair<Oid, Oid>{oid, 0}, by_child);
        aux_.Upsert(
            Key::FromOid(oid), [&] { return MakeAuxRecord(oid); },
            [&](AuxRecord* tuple) {
              for (const ReachEntry& e : mine) {
                tuple->primary_keys.insert(tuple->primary_keys.end(),
                                           values[e.value]);
              }
              tuple->parents.clear();
              for (auto link = parents.first; link != parents.second;
                   ++link) {
                tuple->parents.push_back(link->second);
              }
            });
      }
    }
  }
}

// --------------------------------------------------------------- probe

std::vector<Oid> NIXIndex::Probe(const std::vector<Key>& keys,
                                 int target_level,
                                 const std::vector<ClassId>& target_classes) {
  (void)target_level;
  PATHIX_DCHECK(StrictlyIncreasing(keys));
  std::vector<Oid> oids;
  const auto needed = [&](const PostingRecord& rec) {
    return SliceBytes(rec, target_classes);
  };
  const auto append = [&](const PostingRecord& rec) {
    for (ClassId cls : target_classes) {
      const std::span<const Posting> slice = rec.Slice(cls);
      const std::size_t at = oids.size();
      oids.resize(at + slice.size());
      std::transform(slice.begin(), slice.end(), oids.begin() + at,
                     [](const Posting& p) { return p.oid; });
    }
  };
  // One sorted walk, each page charged once per batch (Yao).
  primary_.LookupSorted(keys, needed, append);
  // A single class slice of a single record is already oid-ordered and
  // duplicate-free.
  if (keys.size() > 1 || target_classes.size() > 1) SortUniqueOids(&oids);
  return oids;
}

// --------------------------------------------------------------- insert

void NIXIndex::OnInsert(const Object& obj, int level) {
  // Steps 1-2: determine the reachable key values; for inner levels this
  // walks the children's 3-tuples, which also gain the new parent.
  const ReachSet reach = ComputeReach(obj, level);
  if (HasChildTuples(level)) {
    BatchCharge aux_batch;
    for (Oid child : obj.refs(ctx_.attr_name(level))) {
      aux_.Mutate(
          Key::FromOid(child),
          [&](AuxRecord* tuple) { tuple->parents.push_back(obj.oid); },
          /*touched_chain_pages=*/1, &aux_batch);
    }
  }
  // Step 3: register the oid in every reached primary record (insertion
  // appends to the class slice: one touched page per record, pmi_NIX).
  BatchCharge primary_batch;
  for (const auto& [key, nc] : reach) {
    primary_.Upsert(
        key, [&] { return MakePostingRecord(key); },
        [&](PostingRecord* rec) { rec->AddOrBump(obj.cls, obj.oid, nc); },
        /*touched_chain_pages=*/1, &primary_batch);
  }
  // Step 4: the new object's own 3-tuple (no parents yet: references are
  // forward-only, nothing can point at a brand-new object).
  if (HasAuxTuple(level)) {
    const Key akey = Key::FromOid(obj.oid);
    aux_.Upsert(
        akey, [&] { return MakeAuxRecord(obj.oid); },
        [&](AuxRecord* tuple) {
          for (const auto& [key, nc] : reach) {
            (void)nc;
            tuple->primary_keys.insert(key);
          }
        });
  }
}

// --------------------------------------------------------------- delete

void NIXIndex::OnDelete(const Object& obj, int level) {
  const double page_size = static_cast<double>(pager_->page_size());

  // Step 2: drop the parent link from the children's 3-tuples; fetch the
  // object's own 3-tuple (pointer set S and parents), then remove it.
  std::set<Key> pointer_keys;
  std::vector<Oid> parent_oids;
  if (HasChildTuples(level)) {
    BatchCharge aux_batch;
    for (Oid child : obj.refs(ctx_.attr_name(level))) {
      aux_.Mutate(
          Key::FromOid(child),
          [&](AuxRecord* tuple) {
            auto it = std::find(tuple->parents.begin(), tuple->parents.end(),
                                obj.oid);
            if (it != tuple->parents.end()) tuple->parents.erase(it);
          },
          /*touched_chain_pages=*/1, &aux_batch);
    }
  }
  if (HasAuxTuple(level)) {
    if (const AuxRecord* tuple = aux_.Lookup(Key::FromOid(obj.oid))) {
      pointer_keys = tuple->primary_keys;
      parent_oids = tuple->parents;
    }
    aux_.Remove(Key::FromOid(obj.oid));
  } else {
    // The subpath root has no 3-tuple; S comes from its reachability.
    for (const auto& [key, nc] : ComputeReach(obj, level)) {
      (void)nc;
      pointer_keys.insert(key);
    }
  }

  // Step 3, round 0: remove the object from every primary record in S.
  // Deletion locates the oid inside its class slice, so the slice's page
  // span is fetched and rewritten (pmd_NIX = prd_NIX, Section 3.1). The
  // records in S stay buffered across the propagation rounds ("a page will
  // be fetched only once"): one charge batch covers the whole deletion.
  BatchCharge primary_op_batch;
  {
    const ClassId cls = obj.cls;
    for (const Key& key : pointer_keys) {
      primary_.MutateWithTouch(
          key,
          [&](PostingRecord* rec) {
            const auto it = rec->Find(cls, obj.oid);
            if (it != rec->postings.end()) rec->postings.erase(it);
          },
          [&](const PostingRecord& rec) {
            return SlicePages(rec, std::array<ClassId, 1>{cls}, page_size);
          },
          &primary_op_batch);
    }
  }

  // Rounds 1..: propagate numchild decrements up the parent chain
  // ("then step 3 is executed again").
  std::map<Oid, std::map<Key, int>> frontier;
  for (Oid parent : parent_oids) {
    for (const Key& key : pointer_keys) frontier[parent][key] += 1;
  }
  int frontier_level = level - 1;
  while (!frontier.empty() && frontier_level >= ctx_.range.start) {
    // Group the decrements by key: one primary-record access per key per
    // round, as in the paper's step 3(a).
    std::map<Key, std::vector<std::pair<Oid, int>>> by_key;
    for (const auto& [parent, decs] : frontier) {
      for (const auto& [key, count] : decs) {
        by_key[key].push_back({parent, count});
      }
    }
    std::map<Oid, std::set<Key>> zeroed;  // parent -> keys it fell out of
    for (const auto& [key, decs] : by_key) {
      std::set<ClassId> touched_classes;
      primary_.MutateWithTouch(
          key,
          [&](PostingRecord* rec) {
            for (const auto& [parent, count] : decs) {
              for (auto it = rec->postings.begin();
                   it != rec->postings.end(); ++it) {
                if (it->oid == parent) {
                  touched_classes.insert(it->cls);
                  it->numchild -= count;
                  if (it->numchild <= 0) {
                    rec->postings.erase(it);
                    zeroed[parent].insert(key);
                  }
                  break;
                }
              }
            }
          },
          [&](const PostingRecord& rec) {
            return SlicePages(rec, touched_classes, page_size);
          },
          &primary_op_batch);
    }
    // Steps 3(b)/(c): the zeroed parents' 3-tuples lose pointers; their own
    // parents enter the next round.
    std::map<Oid, std::map<Key, int>> next;
    BatchCharge aux_batch;
    for (const auto& [parent, keys] : zeroed) {
      if (frontier_level > ctx_.range.start) {
        aux_.Mutate(
            Key::FromOid(parent),
            [&](AuxRecord* tuple) {
              for (const Key& key : keys) tuple->primary_keys.erase(key);
              for (Oid grand : tuple->parents) {
                for (const Key& key : keys) next[grand][key] += 1;
              }
            },
            /*touched_chain_pages=*/1, &aux_batch);
      }
      // frontier_level == range.start: roots have no 3-tuple and no
      // in-subpath parents; propagation ends below them.
    }
    frontier = std::move(next);
    --frontier_level;
  }
}

// --------------------------------------------------- boundary delete (CMD)

void NIXIndex::OnBoundaryDelete(Oid oid) {
  const Key key = Key::FromOid(oid);
  std::vector<Posting> postings;
  if (const PostingRecord* rec = primary_.Lookup(key)) {
    postings = rec->postings;
  } else {
    return;
  }
  primary_.Remove(key);
  // delpoint: every listed object's 3-tuple drops its pointer to the
  // removed record (batched: tuples share auxiliary leaf pages).
  BatchCharge aux_batch;
  for (const Posting& p : postings) {
    const int level = ctx_.LevelOfClass(p.cls);
    if (level > ctx_.range.start) {
      aux_.Mutate(
          Key::FromOid(p.oid),
          [&](AuxRecord* tuple) { tuple->primary_keys.erase(key); },
          /*touched_chain_pages=*/1, &aux_batch);
    }
  }
}

// --------------------------------------------------------------- validate

Status NIXIndex::Validate() const {
  PATHIX_RETURN_IF_ERROR(ValidatePostings(primary_));
  PATHIX_RETURN_IF_ERROR(aux_.ValidateStructure());

  // Cross-consistency: every aux pointer must resolve to a primary record
  // listing the object, and vice versa for non-root postings.
  Status status = Status::OK();
  std::map<Key, std::set<Oid>> primary_members;
  primary_.ForEach([&](const PostingRecord& rec) {
    for (const Posting& p : rec.postings) {
      primary_members[rec.key_value].insert(p.oid);
    }
  });
  aux_.ForEach([&](const AuxRecord& tuple) {
    if (!status.ok()) return;
    for (const Key& key : tuple.primary_keys) {
      auto it = primary_members.find(key);
      if (it == primary_members.end() ||
          it->second.count(tuple.key_value.oid()) == 0) {
        status = Status::Internal(
            "aux tuple points at a primary record not listing it: oid " +
            std::to_string(tuple.key_value.oid()));
        return;
      }
    }
  });
  return status;
}

Status NIXIndex::ValidateAgainstStore(const ObjectStore& store) const {
  // Recompute ground truth and compare with the primary contents.
  std::map<Key, std::map<Oid, std::int32_t>> truth;
  for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
    for (ClassId cls : ctx_.hierarchy(l)) {
      for (Oid oid : store.PeekAll(cls)) {
        const Object* obj = store.Peek(oid);
        for (const auto& [key, nc] : ComputeReachFromStore(store, *obj, l)) {
          truth[key][oid] = nc;
        }
      }
    }
  }
  std::map<Key, std::map<Oid, std::int32_t>> actual;
  primary_.ForEach([&](const PostingRecord& rec) {
    for (const Posting& p : rec.postings) {
      if (p.numchild > 0) actual[rec.key_value][p.oid] = p.numchild;
    }
  });
  // Empty records may linger (lazy deletion); drop them for comparison.
  for (auto it = actual.begin(); it != actual.end();) {
    it = it->second.empty() ? actual.erase(it) : std::next(it);
  }
  for (auto it = truth.begin(); it != truth.end();) {
    it = it->second.empty() ? truth.erase(it) : std::next(it);
  }
  if (truth != actual) {
    return Status::Internal("NIX primary diverges from store ground truth");
  }
  return Status::OK();
}

std::size_t NIXIndex::total_pages() const {
  return primary_.total_pages() + aux_.total_pages();
}

}  // namespace pathix
