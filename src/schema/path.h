#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "schema/schema.h"

/// \file path.h
/// \brief Paths through an aggregation hierarchy (Definition 2.1 of the
/// paper) and the class(P)/scope(P) notions built on them.

namespace pathix {

/// \brief A path P = C1.A1.A2.....An through an aggregation hierarchy.
///
/// Level l (1-based, following the paper) associates class C_l with its
/// attribute A_l; the domain of A_{l-1} is C_l. The ending attribute A_n may
/// be atomic (a full query path) or a reference (a subpath whose index keys
/// are oids of C_{n+1}).
///
/// Definition 2.1 constraints enforced by Create():
///  - C1 is a class of the schema and A1 an attribute of C1;
///  - A_l is an attribute of C_l where C_l is the domain of A_{l-1};
///  - a class appears at most once along the path, and no two levels'
///    classes share an inheritance hierarchy (one a subclass of the other):
///    each object belongs to at most one level.
class Path {
 public:
  /// An empty path; usable only as an assignment target.
  Path() = default;

  /// Builds and validates a path from a starting class and attribute names,
  /// e.g. Create(schema, person, {"owns", "man", "divs", "name"}).
  static Result<Path> Create(const Schema& schema, ClassId starting_class,
                             const std::vector<std::string>& attr_names);

  /// len(P): number of classes along the path.
  int length() const { return static_cast<int>(classes_.size()); }

  /// Class C_l for level l in [1, length()].
  ClassId class_at(int level) const {
    PATHIX_DCHECK(level >= 1 && level <= length());
    return classes_[level - 1];
  }

  /// Attribute A_l for level l in [1, length()].
  const Attribute& attribute_at(int level) const {
    PATHIX_DCHECK(level >= 1 && level <= length());
    return attrs_[level - 1];
  }

  /// True iff the ending attribute A_n is a reference attribute, i.e. this
  /// path is usable only as a subpath whose index keys are oids.
  bool ends_in_reference() const {
    return attrs_.back().kind == AttrKind::kReference;
  }

  /// class(P): the classes along the path, in order.
  const std::vector<ClassId>& classes() const { return classes_; }

  /// scope(P): class(P) plus all their transitive subclasses, grouped per
  /// level (level l's hierarchy first has the root C_l then its subclasses).
  std::vector<ClassId> Scope(const Schema& schema) const;

  /// "Per.owns.man.divs.name"-style rendering.
  std::string ToString(const Schema& schema) const;

  /// The sub-path C_a.A_a....A_b for 1 <= a <= b <= length().
  Path SubpathBetween(int a, int b) const;

 private:
  std::vector<ClassId> classes_;
  std::vector<Attribute> attrs_;
};

}  // namespace pathix
