// Randomized stress of the paged B+-tree across page sizes: mixed
// insert/mutate/remove workloads, string and integer keys, records that
// oscillate across the overflow threshold. Invariants are re-validated
// continuously and final contents checked against a reference map. Every
// op is mirrored onto a twin tree on its own pager, against which the
// sorted batch walk (LookupSorted) is checked: per-key Lookups under one
// BatchCharge on the twin are its reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "index/btree.h"

namespace pathix {
namespace {

class BTreeFuzzTest : public ::testing::TestWithParam<std::size_t> {};

void ExpectSamePoolStats(const Pager& a, const Pager& b) {
  const BufferPoolStats x = a.buffer_pool().GetStats();
  const BufferPoolStats y = b.buffer_pool().GetStats();
  EXPECT_EQ(x.read_hits, y.read_hits);
  EXPECT_EQ(x.read_misses, y.read_misses);
  EXPECT_EQ(x.write_hits, y.write_hits);
  EXPECT_EQ(x.write_misses, y.write_misses);
  EXPECT_EQ(x.evictions, y.evictions);
  EXPECT_EQ(x.writebacks, y.writebacks);
  EXPECT_EQ(x.pin_bypasses, y.pin_bypasses);
}

TEST_P(BTreeFuzzTest, MixedWorkloadKeepsInvariants) {
  // A 4-frame pool on both pagers, so the walk's hits, misses and
  // evictions are part of the comparison (these trees stay below four
  // levels; BTreeWalkTest pins a pool below the tree's height).
  Pager pager(GetParam());
  Pager twin_pager(GetParam());
  pager.EnableBuffer(4);
  twin_pager.EnableBuffer(4);
  PostingTree tree(&pager, "fuzz");
  PostingTree twin(&twin_pager, "fuzz");
  std::mt19937 rng(GetParam() * 31 + 7);
  std::map<std::string, std::size_t> reference;  // key -> posting count

  auto key_of = [](int i) { return "k" + std::to_string(i); };

  // One ascending batch (keys k150.. are never inserted; duplicates are
  // kept) through the walk on `tree` and per-key Lookups on `twin`. The
  // batches draw from their own generator, so the op stream is the same
  // with or without the walk checks.
  std::mt19937 walk_rng(GetParam() * 31 + 8);
  std::uint64_t walk_reads = 0;
  auto check_walk = [&](int step) {
    std::vector<Key> keys(walk_rng() % 40);
    for (Key& key : keys) {
      key = Key::FromString(key_of(static_cast<int>(walk_rng() % 200)));
    }
    std::sort(keys.begin(), keys.end());
    const std::uint64_t before = pager.stats().logical_total();
    std::vector<const PostingRecord*> walked;
    tree.LookupSorted(keys, WholeRecord{}, [&](const PostingRecord& rec) {
      walked.push_back(&rec);
    });
    walk_reads += pager.stats().logical_total() - before;
    BatchCharge batch;
    std::vector<const PostingRecord*> looked;
    for (const Key& key : keys) {
      if (const PostingRecord* rec = twin.Lookup(key, &batch)) {
        looked.push_back(rec);
      }
    }
    ASSERT_EQ(walked.size(), looked.size()) << "step=" << step;
    for (std::size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(walked[i]->key_value, looked[i]->key_value) << "step=" << step;
      EXPECT_EQ(walked[i]->postings, looked[i]->postings) << "step=" << step;
    }
    EXPECT_EQ(pager.stats(), twin_pager.stats()) << "step=" << step;
    ExpectSamePoolStats(pager, twin_pager);
  };

  for (int step = 0; step < 4000; ++step) {
    const int ki = static_cast<int>(rng() % 150);
    const Key key = Key::FromString(key_of(ki));
    switch (rng() % 4) {
      case 0:
      case 1: {  // add a posting (insert-heavy mix)
        for (PostingTree* t : {&tree, &twin}) {
          t->Upsert(
              key,
              [&] {
                PostingRecord rec;
                rec.key_value = key;
                return rec;
              },
              [&](PostingRecord* rec) {
                rec->postings.push_back(
                    Posting{0, static_cast<Oid>(step + 1), 1});
              });
        }
        reference[key_of(ki)] += 1;
        break;
      }
      case 2: {  // shrink a record
        for (PostingTree* t : {&tree, &twin}) {
          t->Mutate(key, [&](PostingRecord* rec) {
            if (!rec->postings.empty()) rec->postings.pop_back();
          });
        }
        auto it = reference.find(key_of(ki));
        if (it != reference.end() && it->second > 0) it->second -= 1;
        break;
      }
      case 3: {  // drop the record
        tree.Remove(key);
        twin.Remove(key);
        reference.erase(key_of(ki));
        break;
      }
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(tree.ValidateStructure().ok())
          << "page=" << GetParam() << " step=" << step << ": "
          << tree.ValidateStructure().ToString();
      check_walk(step);
    }
  }
  EXPECT_GT(walk_reads, 0u);

  ASSERT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.num_records(), reference.size());
  for (const auto& [k, count] : reference) {
    const PostingRecord* rec = tree.Peek(Key::FromString(k));
    ASSERT_NE(rec, nullptr) << k;
    EXPECT_EQ(rec->postings.size(), count) << k;
  }
  // Key order is total and ascending.
  std::string prev;
  bool first = true;
  tree.ForEach([&](const PostingRecord& rec) {
    const std::string cur = rec.key_value.ToString();
    if (!first) {
      EXPECT_LT(prev, cur);
    }
    prev = cur;
    first = false;
  });
}

TEST_P(BTreeFuzzTest, AuxTreeSurvivesChurn) {
  Pager pager(GetParam());
  AuxTree tree(&pager, "aux-fuzz");
  std::mt19937 rng(GetParam());
  std::map<Oid, std::size_t> reference;  // oid -> pointer count
  for (int step = 0; step < 2000; ++step) {
    const Oid oid = 1 + rng() % 80;
    const Key key = Key::FromOid(oid);
    if (rng() % 3 != 0) {
      tree.Upsert(
          key,
          [&] {
            AuxRecord rec;
            rec.key_value = key;
            return rec;
          },
          [&](AuxRecord* rec) {
            rec->primary_keys.insert(
                Key::FromString("v" + std::to_string(step % 37)));
            rec->parents.push_back(step);
          });
      reference[oid] = 1;  // presence marker
    } else {
      tree.Remove(key);
      reference.erase(oid);
    }
  }
  ASSERT_TRUE(tree.ValidateStructure().ok())
      << tree.ValidateStructure().ToString();
  EXPECT_EQ(tree.num_records(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BTreeFuzzTest,
                         ::testing::Values(160, 256, 512, 1024, 4096),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "p" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace pathix
