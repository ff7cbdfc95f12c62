#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "storage/object.h"

/// \file key.h
/// \brief Index key values: either an atomic value (int/string, for ending
/// attributes) or an oid (for reference attributes, whose index records are
/// keyed by the oids of the domain class — Section 4 of the paper).

namespace pathix {

/// \brief Totally ordered index key.
class Key {
 public:
  Key() = default;

  static Key FromOid(Oid oid);
  static Key FromInt(std::int64_t v);
  static Key FromString(std::string v);
  /// Converts a stored attribute value (Ref -> oid key).
  static Key FromValue(const Value& v);

  /// Serialized size in bytes (page occupancy accounting).
  std::size_t bytes() const;

  std::string ToString() const;

  /// Kind first (oid < int < string), then the value. Inline: every
  /// separator, leaf-record and walk comparison of the B-trees goes here.
  std::strong_ordering operator<=>(const Key& other) const {
    if (kind_ != other.kind_) return kind_ <=> other.kind_;
    if (kind_ == Kind::kString) return str_ <=> other.str_;
    return int_ <=> other.int_;
  }
  bool operator==(const Key& other) const {
    if (kind_ != other.kind_) return false;
    return kind_ == Kind::kString ? str_ == other.str_ : int_ == other.int_;
  }

  bool is_oid() const { return kind_ == Kind::kOid; }
  Oid oid() const { return static_cast<Oid>(int_); }

 private:
  enum class Kind : std::uint8_t { kOid, kInt, kString };

  Kind kind_ = Kind::kInt;
  std::int64_t int_ = 0;
  std::string str_;
};

}  // namespace pathix
