#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "costmodel/index_org.h"
#include "schema/path.h"

/// \file structural_key.h
/// \brief Physical identity of an indexed subpath.
///
/// Two indexed subpaths — possibly belonging to different workload paths —
/// denote the *same physical index* exactly when they traverse the same
/// class sequence via the same attributes and use the same organization.
/// Rendered labels ("Company.divs.name (MX)") are for humans only: they
/// abbreviate the interior of the subpath, so keying shared-index detection
/// on them conflates distinct structures (e.g. subclass-typed paths) the
/// moment renderings collide. The candidate pool, the part registry and
/// the controller's shared accounting key on this structural identity
/// instead and keep labels purely for reporting. The key spells the
/// subpath as given: a multi-level MX or NONE block and its per-level split
/// are one physical layout under different keys, which is why the joint
/// stack's candidate pool offers MX and NONE per level only.

namespace pathix {

/// \brief Identity of a physical path index: class ids, attribute names and
/// organization. Totally ordered so it can key ordered containers.
struct StructuralKey {
  std::vector<ClassId> classes;    ///< C_a ... C_b, in path order
  std::vector<std::string> attrs;  ///< A_a ... A_b, in path order
  IndexOrg org = IndexOrg::kMX;

  /// The key of the subpath [a, b] (1-based, inclusive) of \p path indexed
  /// with \p org.
  static StructuralKey ForSubpath(const Path& path, int a, int b,
                                  IndexOrg org);

  bool operator==(const StructuralKey& other) const;
  bool operator<(const StructuralKey& other) const;

  /// Human-readable rendering, e.g. "Company.divs.name (MX)"; reporting
  /// only, never identity.
  std::string Label(const Schema& schema) const;
};

}  // namespace pathix
