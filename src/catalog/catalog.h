#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "common/types.h"

/// \file catalog.h
/// \brief Physical parameters and per-class statistics (the "database
/// characteristics" of Figure 7): object counts, distinct attribute values,
/// multi-value fan-outs. These drive the analytic cost model of Section 3.

namespace pathix {

/// \brief Physical storage parameters.
///
/// The paper's extended technical report [7] fixes these for its experiment;
/// it is unavailable, so PathIx exposes them explicitly (the spec format's
/// `page_size`, `oid_len` and `key_len`, io/spec_parser.h; README, "Measured
/// vs modeled costs", checks the model under them against the simulator).
/// Defaults model a 4 KiB page with 8-byte oids/pointers/keys.
struct PhysicalParams {
  double page_size = 4096;  ///< p: bytes per page
  double oid_len = 8;       ///< bytes per oid
  double ptr_len = 8;       ///< bytes per intra-index pointer
  double key_len = 8;       ///< bytes per atomic (ending-attribute) key value
  double rec_overhead = 8;  ///< per index record: header + key-count bookkeeping
  double dir_entry_len = 8; ///< NIX primary record: per-class directory entry
  double numchild_len = 4;  ///< NIX (oid, numchild) pair: counter width

  /// pr_X / pm_X inputs of Section 3.1: average pages touched when a
  /// multi-page index record is retrieved / maintained. The paper treats
  /// them as input parameters; 0 means "derive as ceil(ln/p)" (whole record)
  /// for retrieval and 1 page for maintenance (the modified page only).
  double pr_override = 0;
  double pm_override = 0;
};

/// \brief Statistics for one class with respect to a path attribute.
///
/// Per the paper's Table 2 (for class C_{l,x} and its path attribute A_l):
///  - n:   number of objects in the class
///  - d:   number of distinct values of A_l held by objects of the class
///  - nin: average number of values of A_l per object (1 if single-valued)
/// plus obj_len, the storage footprint used by the physical simulator and
/// the NONE (no-index) organization's scan costs.
struct ClassStats {
  double n = 0;
  double d = 1;
  double nin = 1;
  double obj_len = 64;

  /// k_{l,x} = n * nin / d: average number of objects of the class holding
  /// a given value for the path attribute (reverse fan-in).
  double k() const { return d > 0 ? n * nin / d : 0.0; }
};

/// \brief The statistics catalog: PhysicalParams plus ClassStats per class.
class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(PhysicalParams params) : params_(params) {}

  const PhysicalParams& params() const { return params_; }
  PhysicalParams* mutable_params() { return &params_; }

  void SetClassStats(ClassId cls, ClassStats stats) { stats_[cls] = stats; }
  bool HasClassStats(ClassId cls) const { return stats_.count(cls) > 0; }

  /// Stats for \p cls; a class never registered yields empty stats (n = 0),
  /// which the cost model treats as an empty class.
  const ClassStats& GetClassStats(ClassId cls) const {
    static const ClassStats kEmpty{0, 1, 1, 64};
    auto it = stats_.find(cls);
    return it == stats_.end() ? kEmpty : it->second;
  }

  // Attribute-keyed statistics. d and nin are properties of (class, path
  // attribute), not of the class alone: when two paths navigate the same
  // class through different attributes, class-keyed stats degrade to
  // whichever path was refreshed last. Writers that know the attribute set
  // both keys (the class-keyed entry keeps n/obj_len consumers and older
  // spec-file catalogs working); readers that know it ask attribute-first
  // and fall back to the class-keyed entry.

  void SetClassStats(ClassId cls, const std::string& attr, ClassStats stats) {
    attr_stats_[{cls, attr}] = stats;
  }
  bool HasClassStats(ClassId cls, const std::string& attr) const {
    return attr_stats_.count({cls, attr}) > 0 || HasClassStats(cls);
  }
  /// Stats for \p cls w.r.t. path attribute \p attr; falls back to the
  /// class-keyed entry when no attribute-keyed one was ever set.
  const ClassStats& GetClassStats(ClassId cls, const std::string& attr) const {
    auto it = attr_stats_.find({cls, attr});
    return it == attr_stats_.end() ? GetClassStats(cls) : it->second;
  }

 private:
  PhysicalParams params_;
  std::unordered_map<ClassId, ClassStats> stats_;
  std::map<std::pair<ClassId, std::string>, ClassStats> attr_stats_;
};

}  // namespace pathix
