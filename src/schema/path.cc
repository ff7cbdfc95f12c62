#include "schema/path.h"

namespace pathix {

Result<Path> Path::Create(const Schema& schema, ClassId starting_class,
                          const std::vector<std::string>& attr_names) {
  if (!schema.IsValidClass(starting_class)) {
    return Status::InvalidArgument("starting class is not part of the schema");
  }
  if (attr_names.empty()) {
    return Status::InvalidArgument("a path needs at least one attribute");
  }
  Path p;
  ClassId cur = starting_class;
  for (std::size_t i = 0; i < attr_names.size(); ++i) {
    for (ClassId prev : p.classes_) {
      if (prev == cur) {
        return Status::InvalidArgument(
            "class '" + schema.GetClass(cur).name() +
            "' appears more than once in the path (Def. 2.1)");
      }
      // A level holds its class's whole hierarchy: two levels whose
      // hierarchies meet would claim the same objects.
      if (schema.IsSameOrSubclassOf(cur, prev) ||
          schema.IsSameOrSubclassOf(prev, cur)) {
        return Status::InvalidArgument(
            "classes '" + schema.GetClass(prev).name() + "' and '" +
            schema.GetClass(cur).name() +
            "' share an inheritance hierarchy in the path (Def. 2.1)");
      }
    }
    const Attribute* attr = schema.ResolveAttribute(cur, attr_names[i]);
    if (attr == nullptr) {
      return Status::InvalidArgument("class '" + schema.GetClass(cur).name() +
                                     "' has no attribute '" + attr_names[i] +
                                     "'");
    }
    p.classes_.push_back(cur);
    p.attrs_.push_back(*attr);
    const bool last = (i + 1 == attr_names.size());
    if (!last) {
      if (attr->kind != AttrKind::kReference) {
        return Status::InvalidArgument(
            "attribute '" + attr->name +
            "' is atomic and cannot be navigated further");
      }
      cur = attr->domain;
    }
  }
  return p;
}

std::vector<ClassId> Path::Scope(const Schema& schema) const {
  std::vector<ClassId> out;
  for (ClassId c : classes_) {
    const std::vector<ClassId> hier = schema.HierarchyOf(c);
    out.insert(out.end(), hier.begin(), hier.end());
  }
  return out;
}

std::string Path::ToString(const Schema& schema) const {
  std::string out = schema.GetClass(classes_.front()).name();
  for (const Attribute& a : attrs_) {
    out += ".";
    out += a.name;
  }
  return out;
}

Path Path::SubpathBetween(int a, int b) const {
  PATHIX_DCHECK(1 <= a && a <= b && b <= length());
  Path p;
  p.classes_.assign(classes_.begin() + (a - 1), classes_.begin() + b);
  p.attrs_.assign(attrs_.begin() + (a - 1), attrs_.begin() + b);
  return p;
}

}  // namespace pathix
