#include "snapshot/tuple.h"

#include "util/hash.h"

namespace ttra {

Status Tuple::ConformsTo(const Schema& schema) const {
  if (values_.size() != schema.size()) {
    return SchemaMismatchError(
        "tuple arity " + std::to_string(values_.size()) +
        " does not match schema arity " + std::to_string(schema.size()));
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    // Allow an int literal to populate a double attribute: without this
    // every constant state with double attributes would need ".0" suffixes.
    if (values_[i].type() != schema.attribute(i).type) {
      return TypeMismatchError(
          "attribute '" + schema.attribute(i).name + "' expects " +
          std::string(ValueTypeName(schema.attribute(i).type)) + " but got " +
          std::string(ValueTypeName(values_[i].type())) + " (" +
          values_[i].ToString() + ")");
    }
  }
  return Status::Ok();
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

size_t Tuple::Hash() const {
  size_t seed = values_.size();
  for (const Value& v : values()) seed = HashCombine(seed, v.Hash());
  return seed;
}

std::ostream& operator<<(std::ostream& os, const Tuple& tuple) {
  return os << tuple.ToString();
}

}  // namespace ttra
