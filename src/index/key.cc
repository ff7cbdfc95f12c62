#include "index/key.h"

#include "common/status.h"

namespace pathix {

Key Key::FromOid(Oid oid) {
  Key k;
  k.kind_ = Kind::kOid;
  k.int_ = static_cast<std::int64_t>(oid);
  return k;
}

Key Key::FromInt(std::int64_t v) {
  Key k;
  k.kind_ = Kind::kInt;
  k.int_ = v;
  return k;
}

Key Key::FromString(std::string v) {
  Key k;
  k.kind_ = Kind::kString;
  k.str_ = std::move(v);
  return k;
}

Key Key::FromValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt:
      return FromInt(v.as_int());
    case Value::Kind::kString:
      return FromString(v.as_string());
    case Value::Kind::kRef:
      return FromOid(v.as_ref());
  }
  PATHIX_DCHECK(false);
  return Key();
}

std::size_t Key::bytes() const {
  return kind_ == Kind::kString ? str_.size() + 2 : 8;
}

std::string Key::ToString() const {
  switch (kind_) {
    case Kind::kOid:
      return "oid:" + std::to_string(int_);
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kString:
      return str_;
  }
  return "?";
}

}  // namespace pathix
