#ifndef TTRA_HISTORICAL_HSTATE_H_
#define TTRA_HISTORICAL_HSTATE_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "historical/temporal_element.h"
#include "snapshot/schema.h"
#include "snapshot/state.h"
#include "snapshot/tuple.h"
#include "util/result.h"

namespace ttra {

/// A value tuple stamped with the temporal element over which it is valid.
struct HistoricalTuple {
  Tuple tuple;
  TemporalElement valid;

  std::string ToString() const;
  size_t Hash() const;

  friend bool operator==(const HistoricalTuple&,
                         const HistoricalTuple&) = default;
  friend bool operator<(const HistoricalTuple& a, const HistoricalTuple& b) {
    if (a.tuple < b.tuple) return true;
    if (b.tuple < a.tuple) return false;
    return a.valid < b.valid;
  }
};

static_assert(sizeof(HistoricalTuple) == 2 * sizeof(void*));

std::ostream& operator<<(std::ostream& os, const HistoricalTuple& tuple);

/// An element of the paper's HISTORICAL STATE semantic domain: the history
/// of the modeled enterprise as currently best known. Canonical form is
/// *homogeneous*: value tuples are unique (equal value tuples have their
/// temporal elements merged) and no tuple has an empty element. This makes
/// state equality structural, which the temporal storage layer relies on.
///
/// Like SnapshotState, historical states are immutable and copy-on-write:
/// copies share one representation, so FINDSTATE reads and clones never
/// deep-copy the tuple vector. A HistoricalTuple is two pointers: its
/// Tuple and its TemporalElement each hold a shared immutable payload, so
/// a state that keeps a row of its predecessor shares that row's values
/// and intervals.
class HistoricalState {
 public:
  HistoricalState() = default;

  /// Validates conformance and canonicalizes (merges duplicates, drops
  /// empty-element tuples, sorts).
  static Result<HistoricalState> Make(Schema schema,
                                      std::vector<HistoricalTuple> tuples);

  /// Trusted constructor for operator kernels: `tuples` must already be
  /// canonical (sorted, unique value tuples, no empty elements) and
  /// conform to `schema`. Invariants are asserted in debug builds only.
  static HistoricalState FromCanonical(Schema schema,
                                       std::vector<HistoricalTuple> tuples);

  static HistoricalState Empty(Schema schema);

  const Schema& schema() const { return rep_->schema; }
  const std::vector<HistoricalTuple>& tuples() const { return rep_->tuples; }
  size_t size() const { return rep_->tuples.size(); }
  bool empty() const { return rep_->tuples.empty(); }

  /// The temporal element attached to `tuple`, or the empty element if the
  /// value tuple is absent.
  TemporalElement ValidTimeOf(const Tuple& tuple) const;

  /// The snapshot state valid at chronon t (the "timeslice": tuples whose
  /// element contains t, with timestamps dropped).
  SnapshotState SnapshotAt(Chronon t) const;

  /// "(a: int) {(1) @ [0, 5), (2) @ [3, 7)}".
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const HistoricalState& a, const HistoricalState& b) {
    return a.rep_ == b.rep_ || (a.rep_->schema == b.rep_->schema &&
                                a.rep_->tuples == b.rep_->tuples);
  }

 private:
  struct Rep {
    Schema schema;
    std::vector<HistoricalTuple> tuples;
  };

  static const std::shared_ptr<const Rep>& EmptyRep();

  HistoricalState(Schema schema, std::vector<HistoricalTuple> tuples)
      : rep_(std::make_shared<const Rep>(
            Rep{std::move(schema), std::move(tuples)})) {}

  std::shared_ptr<const Rep> rep_ = EmptyRep();
};

std::ostream& operator<<(std::ostream& os, const HistoricalState& state);

}  // namespace ttra

namespace std {
template <>
struct hash<ttra::HistoricalTuple> {
  size_t operator()(const ttra::HistoricalTuple& t) const { return t.Hash(); }
};
template <>
struct hash<ttra::HistoricalState> {
  size_t operator()(const ttra::HistoricalState& s) const { return s.Hash(); }
};
}  // namespace std

#endif  // TTRA_HISTORICAL_HSTATE_H_
