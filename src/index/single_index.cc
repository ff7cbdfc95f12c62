#include "index/single_index.h"

namespace pathix {

namespace {

PostingRecord MakeRecord(const Key& key) {
  PostingRecord rec;
  rec.key_value = key;
  return rec;
}

}  // namespace

void AttrIndex::AddEntry(const Key& key, ClassId cls, Oid oid) {
  tree_.Upsert(
      key, [&] { return MakeRecord(key); },
      [&](PostingRecord* rec) { rec->AddOrBump(cls, oid, 1); });
}

void AttrIndex::RemoveEntry(const Key& key, ClassId cls, Oid oid) {
  tree_.Mutate(key, [&](PostingRecord* rec) {
    const auto it = rec->Find(cls, oid);
    if (it != rec->postings.end() && --it->numchild <= 0) {
      rec->postings.erase(it);
    }
  });
}

void AttrIndex::RemoveKey(const Key& key) { tree_.Remove(key); }

std::vector<Posting> AttrIndex::Lookup(const Key& key) {
  std::vector<Posting> out;
  if (const PostingRecord* rec = tree_.Lookup(key)) {
    out = rec->postings;
  }
  return out;
}

}  // namespace pathix
