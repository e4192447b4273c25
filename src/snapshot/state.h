#ifndef TTRA_SNAPSHOT_STATE_H_
#define TTRA_SNAPSHOT_STATE_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "snapshot/schema.h"
#include "snapshot/tuple.h"
#include "util/result.h"

namespace ttra {

/// An element of the paper's SNAPSHOT STATE semantic domain: a relation
/// instance in Maier's sense — a scheme plus a *set* of conforming tuples.
///
/// The tuple set is kept canonical (sorted, deduplicated), which makes
/// state equality a linear scan. Canonical equality is load-bearing: the
/// segment codec diffs states, FINDSTATE tests compare against oracles,
/// and the property suites assert algebraic identities.
///
/// States are immutable and copy-on-write: the scheme and tuple vector
/// live in a shared representation, so copying a state (operator results,
/// FINDSTATE reads, Relation/Database clones) is a reference-count bump,
/// never a deep copy of the tuple vector. One level down, each Tuple and
/// the Schema are themselves one pointer to a shared immutable payload:
/// a new state built from an old one's tuples (σ, ∪, −, a delta decode)
/// holds 8 bytes per tuple and shares every kept tuple's values.
class SnapshotState {
 public:
  /// The empty state over the empty scheme (what FINDSTATE yields for a
  /// relation with no recorded states).
  SnapshotState() = default;

  /// Canonicalizes and validates: every tuple must conform to `schema`.
  static Result<SnapshotState> Make(Schema schema, std::vector<Tuple> tuples);

  /// Trusted constructor for operator kernels: `tuples` must already be in
  /// canonical form (sorted, deduplicated) and conform to `schema`. Skips
  /// the O(n log n) re-sort and the per-tuple validation of Make; the
  /// invariants are asserted in debug builds.
  static SnapshotState FromCanonical(Schema schema, std::vector<Tuple> tuples);

  /// The empty state over `schema`.
  static SnapshotState Empty(Schema schema);

  const Schema& schema() const { return rep_->schema; }
  /// Tuples in canonical (sorted) order, no duplicates.
  const std::vector<Tuple>& tuples() const { return rep_->tuples; }
  size_t size() const { return rep_->tuples.size(); }
  bool empty() const { return rep_->tuples.empty(); }

  bool Contains(const Tuple& tuple) const;

  /// Language-literal form: "(a: int, b: string) {(1, "x"), (2, "y")}".
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const SnapshotState& a, const SnapshotState& b) {
    return a.rep_ == b.rep_ || (a.rep_->schema == b.rep_->schema &&
                                a.rep_->tuples == b.rep_->tuples);
  }

 private:
  struct Rep {
    Schema schema;
    std::vector<Tuple> tuples;
  };

  /// Shared representation of the default (empty-scheme) state.
  static const std::shared_ptr<const Rep>& EmptyRep();

  SnapshotState(Schema schema, std::vector<Tuple> tuples)
      : rep_(std::make_shared<const Rep>(
            Rep{std::move(schema), std::move(tuples)})) {}

  std::shared_ptr<const Rep> rep_ = EmptyRep();
};

std::ostream& operator<<(std::ostream& os, const SnapshotState& state);

}  // namespace ttra

namespace std {
template <>
struct hash<ttra::SnapshotState> {
  size_t operator()(const ttra::SnapshotState& s) const { return s.Hash(); }
};
}  // namespace std

#endif  // TTRA_SNAPSHOT_STATE_H_
