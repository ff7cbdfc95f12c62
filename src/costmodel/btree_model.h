#pragma once

#include <vector>

#include "catalog/catalog.h"

/// \file btree_model.h
/// \brief Analytic model of a B+-tree-organized index (Section 3.1).
///
/// Indices are B+-trees with chained leaf nodes. Leaf nodes hold the index
/// records (one per distinct key value); non-leaf records are
/// (attribute value, pointer) pairs. The paper defers the height/occupancy
/// computation to its technical report [7]; we use the standard bottom-up
/// construction, which the model-vs-simulation tests check against the
/// physical B+-trees (README, "Testing").

namespace pathix {

/// Occupancy of one B+-tree level.
struct BTreeLevelInfo {
  double records;  ///< index records (leaf) or child pointers (non-leaf)
  double pages;
};

/// \brief Derived shape of one index: height, per-level occupancy, and the
/// average index-record geometry the access-cost functions need.
class BTreeModel {
 public:
  BTreeModel() = default;

  /// Models an index holding \p num_records leaf records of average length
  /// \p record_len bytes, keyed by values of \p key_len bytes.
  static BTreeModel Build(double num_records, double record_len,
                          double key_len, const PhysicalParams& params);

  /// h_X: number of levels, leaf level included. At least 1.
  int height() const { return static_cast<int>(levels_.size()); }

  /// Levels from root (front) to leaves (back).
  const std::vector<BTreeLevelInfo>& levels() const { return levels_; }

  double num_records() const { return num_records_; }
  double record_len() const { return record_len_; }
  double leaf_pages() const { return levels_.back().pages; }
  double page_size() const { return page_size_; }

  /// True when one index record does not fit a page (ln_X > p).
  bool multi_page_record() const { return record_len_ > page_size_; }

  /// ceil(ln_X / p): pages occupied by one index record.
  double record_pages() const;

  /// pr_X: average pages retrieved for one (multi-page) record. Defaults to
  /// the whole record unless PhysicalParams::pr_override is set.
  double pr() const { return pr_; }
  /// pm_X: average pages maintained in one (multi-page) record. Defaults to
  /// 1 (the modified page) unless PhysicalParams::pm_override is set.
  double pm() const { return pm_; }

 private:
  std::vector<BTreeLevelInfo> levels_{{0, 1}};
  double num_records_ = 0;
  double record_len_ = 0;
  double page_size_ = 4096;
  double pr_ = 1;
  double pm_ = 1;
};

}  // namespace pathix
