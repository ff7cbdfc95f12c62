#pragma once

#include <vector>

#include "index/key.h"
#include "schema/path.h"
#include "storage/object_store.h"

/// \file naive_evaluator.h
/// \brief Index-less path evaluation — the expensive strategy the paper's
/// introduction motivates indexing against: scan the queried class and
/// navigate the forward references class by class, comparing the ending
/// attribute.

namespace pathix {

/// \brief Evaluates "A_n = value" with respect to \p target_class by
/// scanning and navigating.
///
/// One PathWalk per query: each class below the target level is read once,
/// and page accounting emulates an unbounded per-query buffer — each data
/// page is charged once per query, however many objects on it are visited
/// (objects shared between parents are memoized).
class NaiveEvaluator {
 public:
  NaiveEvaluator(ObjectStore* store, const Schema* schema, const Path* path)
      : store_(store), schema_(schema), path_(path) {}

  std::vector<Oid> Evaluate(const Key& ending_value, ClassId target_class,
                            bool include_subclasses, Pager* pager);

 private:
  ObjectStore* store_;
  const Schema* schema_;
  const Path* path_;
};

}  // namespace pathix
