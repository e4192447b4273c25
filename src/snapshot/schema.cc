#include "snapshot/schema.h"

#include <unordered_set>

#include "util/hash.h"
#include "util/string_util.h"

namespace ttra {

Result<Schema> Schema::Make(std::vector<Attribute> attributes) {
  std::unordered_set<std::string_view> seen;
  for (const Attribute& attr : attributes) {
    if (!IsIdentifier(attr.name)) {
      return SchemaMismatchError("attribute name is not an identifier: '" +
                                 attr.name + "'");
    }
    if (!seen.insert(attr.name).second) {
      return SchemaMismatchError("duplicate attribute name: " + attr.name);
    }
  }
  return Schema(SharedArray<Attribute>(std::move(attributes)));
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> Schema::Names() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& attr : attributes()) names.push_back(attr.name);
  return names;
}

Result<Schema> Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Attribute> projected;
  projected.reserve(names.size());
  for (const std::string& name : names) {
    auto index = IndexOf(name);
    if (!index.has_value()) {
      return SchemaMismatchError("projection of unknown attribute: " + name);
    }
    projected.push_back(attributes_[*index]);
  }
  return Schema::Make(std::move(projected));
}

Result<Schema> Schema::Concat(const Schema& other) const {
  std::vector<Attribute> combined(attributes().begin(), attributes().end());
  for (const Attribute& attr : other.attributes()) {
    if (IndexOf(attr.name).has_value()) {
      return SchemaMismatchError(
          "cartesian product would duplicate attribute: " + attr.name);
    }
    combined.push_back(attr);
  }
  return Schema::Make(std::move(combined));
}

Result<Schema> Schema::Rename(std::string_view from,
                              std::string_view to) const {
  auto index = IndexOf(from);
  if (!index.has_value()) {
    return SchemaMismatchError("rename of unknown attribute: " +
                               std::string(from));
  }
  if (IndexOf(to).has_value()) {
    return SchemaMismatchError("rename target already exists: " +
                               std::string(to));
  }
  std::vector<Attribute> renamed(attributes().begin(), attributes().end());
  renamed[*index].name = std::string(to);
  return Schema::Make(std::move(renamed));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    out += ": ";
    out += ValueTypeName(attributes_[i].type);
  }
  out += ")";
  return out;
}

size_t Schema::Hash() const {
  size_t seed = 0;
  for (const Attribute& attr : attributes()) {
    seed = HashCombine(seed, HashValue(attr.name));
    seed = HashCombine(seed, static_cast<size_t>(attr.type));
  }
  return seed;
}

std::ostream& operator<<(std::ostream& os, const Schema& schema) {
  return os << schema.ToString();
}

}  // namespace ttra
