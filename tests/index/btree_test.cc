#include "index/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace pathix {
namespace {

PostingRecord Rec(std::int64_t key, int n_postings) {
  PostingRecord rec;
  rec.key_value = Key::FromInt(key);
  for (int i = 0; i < n_postings; ++i) {
    rec.postings.push_back(Posting{0, static_cast<Oid>(100 + i), 1});
  }
  return rec;
}

class BTreeTest : public ::testing::Test {
 protected:
  Pager pager_{256};  // small pages force splits quickly
  PostingTree tree_{&pager_, "t"};
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_.height(), 1);
  EXPECT_EQ(tree_.num_records(), 0u);
  EXPECT_EQ(tree_.Lookup(Key::FromInt(1)), nullptr);
  EXPECT_TRUE(tree_.ValidateStructure().ok());
}

TEST_F(BTreeTest, InsertAndLookup) {
  tree_.Upsert(Key::FromInt(5), [] { return Rec(5, 1); },
               [](PostingRecord*) {});
  const PostingRecord* rec = tree_.Lookup(Key::FromInt(5));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->postings.size(), 1u);
  EXPECT_EQ(tree_.num_records(), 1u);
}

TEST_F(BTreeTest, LookupCountsHeightPages) {
  for (int i = 0; i < 200; ++i) {
    tree_.Upsert(Key::FromInt(i), [&] { return Rec(i, 1); },
                 [](PostingRecord*) {});
  }
  ASSERT_GT(tree_.height(), 1);
  pager_.ResetStats();
  tree_.Lookup(Key::FromInt(42));
  EXPECT_EQ(pager_.stats().reads, static_cast<std::uint64_t>(tree_.height()));
  EXPECT_EQ(pager_.stats().writes, 0u);
}

TEST_F(BTreeTest, SplitsKeepOrderAndStructure) {
  std::mt19937 rng(7);
  std::vector<int> keys(500);
  for (int i = 0; i < 500; ++i) keys[i] = i;
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int k : keys) {
    tree_.Upsert(Key::FromInt(k), [&] { return Rec(k, 2); },
                 [](PostingRecord*) {});
  }
  EXPECT_EQ(tree_.num_records(), 500u);
  EXPECT_TRUE(tree_.ValidateStructure().ok())
      << tree_.ValidateStructure().ToString();
  EXPECT_GE(tree_.height(), 3);
  // Everything findable.
  for (int k : keys) {
    ASSERT_NE(tree_.Peek(Key::FromInt(k)), nullptr) << k;
  }
  // Key order via ForEach.
  std::int64_t prev = -1;
  tree_.ForEach([&](const PostingRecord& rec) {
    const std::int64_t cur = std::stoll(rec.key_value.ToString());
    EXPECT_GT(cur, prev);
    prev = cur;
  });
}

TEST_F(BTreeTest, MatchesReferenceMapUnderRandomOps) {
  std::mt19937 rng(99);
  std::map<int, int> reference;  // key -> posting count
  for (int step = 0; step < 3000; ++step) {
    const int k = static_cast<int>(rng() % 120);
    const int op = static_cast<int>(rng() % 3);
    if (op == 0 || reference.find(k) == reference.end()) {
      tree_.Upsert(Key::FromInt(k), [&] { return Rec(k, 0); },
                   [&](PostingRecord* rec) {
                     rec->postings.push_back(
                         Posting{0, static_cast<Oid>(step), 1});
                   });
      reference[k] += 1;
    } else if (op == 1) {
      tree_.Mutate(Key::FromInt(k), [&](PostingRecord* rec) {
        if (!rec->postings.empty()) rec->postings.pop_back();
      });
      if (reference[k] > 0) reference[k] -= 1;
    } else {
      tree_.Remove(Key::FromInt(k));
      reference.erase(k);
    }
  }
  ASSERT_TRUE(tree_.ValidateStructure().ok());
  for (const auto& [k, count] : reference) {
    const PostingRecord* rec = tree_.Peek(Key::FromInt(k));
    ASSERT_NE(rec, nullptr) << k;
    EXPECT_EQ(rec->postings.size(), static_cast<std::size_t>(count)) << k;
  }
  EXPECT_EQ(tree_.num_records(), reference.size());
}

TEST_F(BTreeTest, RemoveAbsentKeyIsFalse) {
  EXPECT_FALSE(tree_.Remove(Key::FromInt(1)));
  tree_.Upsert(Key::FromInt(1), [] { return Rec(1, 1); },
               [](PostingRecord*) {});
  EXPECT_TRUE(tree_.Remove(Key::FromInt(1)));
  EXPECT_EQ(tree_.num_records(), 0u);
}

TEST_F(BTreeTest, MultiPageRecordGetsOverflowChain) {
  // 256-byte pages; 30 postings * 16B = 480B record -> 2-page chain.
  tree_.Upsert(Key::FromInt(1), [] { return Rec(1, 30); },
               [](PostingRecord*) {});
  EXPECT_GE(tree_.leaf_pages(), 3u);  // leaf node + 2 chain pages
  pager_.ResetStats();
  tree_.Lookup(Key::FromInt(1));
  // Full read: height + chain.
  EXPECT_EQ(pager_.stats().reads,
            static_cast<std::uint64_t>(tree_.height()) + 2);
}

TEST_F(BTreeTest, PartialReadStopsEarly) {
  tree_.Upsert(Key::FromInt(1), [] { return Rec(1, 30); },
               [](PostingRecord*) {});
  pager_.ResetStats();
  const std::vector<Key> keys{Key::FromInt(1)};
  tree_.LookupSorted(
      keys, [](const PostingRecord&) { return 100; },  // one page is enough
      [](const PostingRecord&) {});
  EXPECT_EQ(pager_.stats().reads,
            static_cast<std::uint64_t>(tree_.height()) + 1);
}

TEST_F(BTreeTest, BatchedChainReadsKeepKeyKindsApart) {
  // Key::FromInt(5) and Key::FromString("5") both print as "5". One batch
  // must still fetch each record's own chain, not count one chain twice.
  const Key int_key = Key::FromInt(5);
  const Key str_key = Key::FromString("5");
  for (const Key& key : {int_key, str_key}) {
    tree_.Upsert(
        key,
        [&] {
          PostingRecord rec = Rec(0, 30);  // 2-page chain on 256-byte pages
          rec.key_value = key;
          return rec;
        },
        [](PostingRecord*) {});
  }
  ASSERT_EQ(tree_.height(), 1);
  pager_.ResetStats();
  BatchCharge batch;
  ASSERT_NE(tree_.Lookup(int_key, &batch), nullptr);
  ASSERT_NE(tree_.Lookup(str_key, &batch), nullptr);
  // The shared leaf once, then both records' two chain pages.
  EXPECT_EQ(pager_.stats().reads, 5u);

  // The sorted walk charges the same (int keys order before string keys);
  // a repeated key visits its record again and reads no chain page twice.
  pager_.ResetStats();
  const std::vector<Key> keys{int_key, int_key, str_key};
  std::vector<Key> visited;
  tree_.LookupSorted(keys, WholeRecord{}, [&](const PostingRecord& rec) {
    visited.push_back(rec.key_value);
  });
  EXPECT_EQ(visited, keys);
  EXPECT_EQ(pager_.stats().reads, 5u);
}

// Builds two identical trees holding \p stored (two postings each), each on
// its own pager with a pool of \p pool_frames, and probes \p probed: the
// sorted walk on one must visit \p found records and charge, pin and bypass
// exactly as per-key Lookups under one BatchCharge on the other. Returns
// the walk's pool stats.
BufferPoolStats ExpectWalkLikeLookups(const std::vector<Key>& stored,
                                      const std::vector<Key>& probed,
                                      std::size_t found,
                                      std::size_t pool_frames,
                                      int min_height) {
  Pager pager(256);
  Pager twin_pager(256);
  PostingTree tree(&pager, "walk");
  PostingTree twin(&twin_pager, "walk");
  for (PostingTree* t : {&tree, &twin}) {
    for (const Key& key : stored) {
      t->Upsert(
          key,
          [&] {
            PostingRecord rec = Rec(0, 2);
            rec.key_value = key;
            return rec;
          },
          [](PostingRecord*) {});
    }
  }
  EXPECT_TRUE(tree.ValidateStructure().ok());
  EXPECT_GE(tree.height(), min_height);
  pager.EnableBuffer(pool_frames);
  twin_pager.EnableBuffer(pool_frames);
  std::vector<Key> walked;
  tree.LookupSorted(probed, WholeRecord{}, [&](const PostingRecord& rec) {
    walked.push_back(rec.key_value);
  });
  BatchCharge batch;
  std::vector<Key> looked;
  for (const Key& key : probed) {
    if (const PostingRecord* rec = twin.Lookup(key, &batch)) {
      looked.push_back(rec->key_value);
    }
  }
  EXPECT_EQ(walked, looked);
  EXPECT_EQ(walked.size(), found);
  EXPECT_EQ(pager.stats(), twin_pager.stats());
  const BufferPoolStats a = pager.buffer_pool().GetStats();
  const BufferPoolStats b = twin_pager.buffer_pool().GetStats();
  EXPECT_EQ(a.pin_bypasses, b.pin_bypasses);
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.evictions, b.evictions);
  return a;
}

TEST(BTreeWalkTest, PinsLikePerKeyLookupsInAPoolBelowTheHeight) {
  // A 2-frame pool, lower than the tree's height: a descent pins every
  // frame and the next node bypasses the pool.
  std::vector<Key> stored;
  for (int i = 0; i < 500; i += 2) stored.push_back(Key::FromInt(i));
  // Ascending, with odd (absent) keys and repeats.
  std::vector<Key> probed;
  for (int i : {3, 8, 8, 40, 41, 42, 250, 251, 252, 252, 498, 499}) {
    probed.push_back(Key::FromInt(i));
  }
  const BufferPoolStats pool =
      ExpectWalkLikeLookups(stored, probed, /*found=*/8, /*pool_frames=*/2,
                            /*min_height=*/3);
  EXPECT_GT(pool.pin_bypasses, 0u);
}

TEST(BTreeWalkTest, WalksATreeDeeperThanItsStackPath) {
  // Keys of 200 bytes on 256-byte pages: an inner node holds one
  // separator, so a few dozen records make the tree deeper than the
  // walk's 16 stack levels and its path moves to the heap.
  const auto key_of = [](int i) {
    std::string digits = std::to_string(1000 + i);
    return Key::FromString(std::string(196, 'k') + digits);
  };
  std::vector<Key> stored;
  for (int i = 0; i < 120; i += 2) stored.push_back(key_of(i));
  std::vector<Key> probed;
  for (int i : {0, 1, 2, 2, 30, 61, 62, 64, 100, 117, 118, 119}) {
    probed.push_back(key_of(i));
  }
  ExpectWalkLikeLookups(stored, probed, /*found=*/8, /*pool_frames=*/4,
                        /*min_height=*/17);
}

TEST_F(BTreeTest, StubRecordsDoNotBlockSplits) {
  // Interleave big and small records; structure must stay valid.
  for (int i = 0; i < 60; ++i) {
    const int postings = (i % 7 == 0) ? 40 : 2;
    tree_.Upsert(Key::FromInt(i), [&] { return Rec(i, postings); },
                 [](PostingRecord*) {});
  }
  EXPECT_TRUE(tree_.ValidateStructure().ok())
      << tree_.ValidateStructure().ToString();
  for (int i = 0; i < 60; ++i) {
    ASSERT_NE(tree_.Peek(Key::FromInt(i)), nullptr);
  }
}

TEST_F(BTreeTest, GrowingARecordPastAPageRebalances) {
  for (int i = 0; i < 10; ++i) {
    tree_.Upsert(Key::FromInt(i), [&] { return Rec(i, 2); },
                 [](PostingRecord*) {});
  }
  // Grow record 5 far past the page size through repeated mutation.
  for (int g = 0; g < 50; ++g) {
    tree_.Mutate(Key::FromInt(5), [&](PostingRecord* rec) {
      rec->postings.push_back(Posting{0, static_cast<Oid>(1000 + g), 1});
    });
  }
  EXPECT_TRUE(tree_.ValidateStructure().ok())
      << tree_.ValidateStructure().ToString();
  const PostingRecord* rec = tree_.Peek(Key::FromInt(5));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->postings.size(), 52u);
}

TEST_F(BTreeTest, AuxTreeRoundTrip) {
  AuxTree aux(&pager_, "aux");
  const Key k = Key::FromOid(42);
  aux.Upsert(
      k,
      [&] {
        AuxRecord rec;
        rec.key_value = k;
        return rec;
      },
      [](AuxRecord* rec) {
        rec->primary_keys.insert(Key::FromString("fiat"));
        rec->parents.push_back(7);
      });
  const AuxRecord* rec = aux.Lookup(k);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->primary_keys.size(), 1u);
  EXPECT_EQ(rec->parents, (std::vector<Oid>{7}));
}

TEST(PostingRecordTest, KeepsClassSlicesInOidOrder) {
  PostingRecord rec;
  rec.key_value = Key::FromInt(1);
  rec.AddOrBump(2, 30, 1);
  rec.AddOrBump(1, 50, 1);
  rec.AddOrBump(2, 10, 1);
  rec.AddOrBump(1, 20, 2);
  rec.AddOrBump(2, 30, 3);  // present: bumps numchild
  EXPECT_TRUE(rec.Ordered());
  EXPECT_EQ(rec.postings, (std::vector<Posting>{
                              {1, 20, 2}, {1, 50, 1}, {2, 10, 1}, {2, 30, 4}}));

  const std::span<const Posting> slice = rec.Slice(2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice[0].oid, 10u);
  EXPECT_EQ(slice[1].oid, 30u);
  EXPECT_TRUE(rec.Slice(3).empty());

  ASSERT_NE(rec.Find(1, 50), rec.postings.end());
  EXPECT_EQ(rec.Find(1, 50)->numchild, 1);
  EXPECT_EQ(rec.Find(2, 50), rec.postings.end());  // oid of another class

  rec.postings.push_back(Posting{1, 5, 1});
  EXPECT_FALSE(rec.Ordered());
}

TEST(BTreeKeyTest, OrderingAcrossKinds) {
  EXPECT_TRUE(Key::FromInt(1) < Key::FromInt(2));
  EXPECT_TRUE(Key::FromString("a") < Key::FromString("b"));
  EXPECT_TRUE(Key::FromOid(5) == Key::FromOid(5));
  EXPECT_FALSE(Key::FromOid(5) == Key::FromInt(5));  // kinds differ
  EXPECT_EQ(Key::FromValue(Value::Ref(9)), Key::FromOid(9));
  EXPECT_EQ(Key::FromValue(Value::Str("x")), Key::FromString("x"));
}

}  // namespace
}  // namespace pathix
