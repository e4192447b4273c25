#ifndef TTRA_SNAPSHOT_SCHEMA_H_
#define TTRA_SNAPSHOT_SCHEMA_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/value.h"
#include "util/result.h"
#include "util/shared_array.h"

namespace ttra {

/// One named, typed attribute of a relation scheme.
struct Attribute {
  std::string name;
  ValueType type;

  friend bool operator==(const Attribute&, const Attribute&) = default;
};

/// An ordered list of uniquely-named attributes. Schemas are value types;
/// the operators derive result schemas from operand schemas (projection,
/// product concatenation, rename). Like a Tuple, a schema is one pointer
/// to a shared immutable attribute list, so every state over one scheme
/// holds the same list.
class Schema {
 public:
  Schema() = default;

  /// Fails with kSchemaMismatch if names repeat or are not identifiers.
  static Result<Schema> Make(std::vector<Attribute> attributes);

  std::span<const Attribute> attributes() const { return attributes_.span(); }
  size_t size() const { return attributes_.size(); }
  bool empty() const { return attributes_.empty(); }

  /// Position of the named attribute, or nullopt.
  std::optional<size_t> IndexOf(std::string_view name) const;

  const Attribute& attribute(size_t i) const { return attributes_[i]; }

  /// All attribute names, in order.
  std::vector<std::string> Names() const;

  /// Result schema of projecting onto `names` (in the given order).
  /// Fails if any name is missing.
  Result<Schema> Project(const std::vector<std::string>& names) const;

  /// Result schema of a cartesian product: the concatenation of this and
  /// `other`. Fails if any attribute name would be duplicated (rename
  /// first, as in Maier's treatment).
  Result<Schema> Concat(const Schema& other) const;

  /// Result schema with attribute `from` renamed to `to`. Fails if `from`
  /// is missing or `to` already exists.
  Result<Schema> Rename(std::string_view from, std::string_view to) const;

  /// "(name: type, ...)" — the notation used by language constants.
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  explicit Schema(SharedArray<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  SharedArray<Attribute> attributes_;
};

std::ostream& operator<<(std::ostream& os, const Schema& schema);

}  // namespace ttra

#endif  // TTRA_SNAPSHOT_SCHEMA_H_
