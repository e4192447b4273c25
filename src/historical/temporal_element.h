#ifndef TTRA_HISTORICAL_TEMPORAL_ELEMENT_H_
#define TTRA_HISTORICAL_TEMPORAL_ELEMENT_H_

#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "historical/interval.h"
#include "util/shared_array.h"

namespace ttra {

/// A temporal element: a finite union of valid-time intervals, kept in
/// canonical form (sorted, disjoint, non-touching, non-empty intervals).
/// This is the valid-time timestamp attached to each historical tuple in
/// our (Gadia-style homogeneous) historical algebra; the paper only
/// requires *some* historical-state definition, see DESIGN.md.
class TemporalElement {
 public:
  /// The empty element (valid never).
  TemporalElement() = default;

  /// Canonicalizes an arbitrary interval collection.
  static TemporalElement Of(std::vector<Interval> intervals);
  static TemporalElement Of(std::initializer_list<Interval> intervals) {
    return Of(std::vector<Interval>(intervals));
  }
  /// Single interval [begin, end).
  static TemporalElement Span(Chronon begin, Chronon end) {
    return Of({Interval::Make(begin, end)});
  }
  /// The single chronon t.
  static TemporalElement Point(Chronon t) { return Of({Interval::Point(t)}); }

  std::span<const Interval> intervals() const { return intervals_.span(); }
  bool empty() const { return intervals_.empty(); }

  bool Contains(Chronon t) const;
  bool Overlaps(const TemporalElement& other) const;
  /// True iff every chronon of `other` is in this element.
  bool Covers(const TemporalElement& other) const;
  /// Total number of chronons (saturates at INT64_MAX).
  uint64_t Duration() const;
  /// Earliest chronon; requires !empty().
  Chronon Min() const { return intervals_[0].begin; }
  /// One past the latest chronon; requires !empty().
  Chronon Max() const { return intervals_[intervals_.size() - 1].end; }

  TemporalElement Union(const TemporalElement& other) const;
  TemporalElement Intersect(const TemporalElement& other) const;
  TemporalElement Difference(const TemporalElement& other) const;

  /// "[1, 5) u [7, inf)"; the empty element prints as "[)".
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const TemporalElement&,
                         const TemporalElement&) = default;
  /// Canonical order for sorting historical tuples.
  friend bool operator<(const TemporalElement& a, const TemporalElement& b) {
    return a.intervals_ < b.intervals_;
  }

 private:
  // Shared immutable payload, like Tuple's: copying an element (into a
  // state, a delta row, an operator result) never copies its intervals.
  SharedArray<Interval> intervals_;
};

std::ostream& operator<<(std::ostream& os, const TemporalElement& element);

}  // namespace ttra

namespace std {
template <>
struct hash<ttra::TemporalElement> {
  size_t operator()(const ttra::TemporalElement& e) const { return e.Hash(); }
};
}  // namespace std

#endif  // TTRA_HISTORICAL_TEMPORAL_ELEMENT_H_
