#include "historical/temporal_element.h"

#include <algorithm>

#include "util/hash.h"

namespace ttra {

TemporalElement TemporalElement::Of(std::vector<Interval> intervals) {
  intervals.erase(
      std::remove_if(intervals.begin(), intervals.end(),
                     [](const Interval& i) { return i.empty(); }),
      intervals.end());
  std::sort(intervals.begin(), intervals.end());
  // Coalesce in place: [0, kept) is the canonical prefix.
  size_t kept = 0;
  for (const Interval& interval : intervals) {
    if (kept > 0 && intervals[kept - 1].Meets(interval)) {
      intervals[kept - 1].end = std::max(intervals[kept - 1].end, interval.end);
    } else {
      intervals[kept++] = interval;
    }
  }
  intervals.resize(kept);
  TemporalElement element;
  element.intervals_ = SharedArray<Interval>(std::move(intervals));
  return element;
}

bool TemporalElement::Contains(Chronon t) const {
  // Binary search: first interval with begin > t, then check predecessor.
  const std::span<const Interval> all = intervals();
  auto it = std::upper_bound(
      all.begin(), all.end(), t,
      [](Chronon value, const Interval& i) { return value < i.begin; });
  if (it == all.begin()) return false;
  return std::prev(it)->Contains(t);
}

bool TemporalElement::Overlaps(const TemporalElement& other) const {
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    if (intervals_[i].Overlaps(other.intervals_[j])) return true;
    if (intervals_[i].end <= other.intervals_[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool TemporalElement::Covers(const TemporalElement& other) const {
  return other.Difference(*this).empty();
}

uint64_t TemporalElement::Duration() const {
  uint64_t total = 0;
  for (const Interval& i : intervals()) {
    const uint64_t len = static_cast<uint64_t>(i.end) -
                         static_cast<uint64_t>(i.begin);
    if (total > UINT64_MAX - len) return UINT64_MAX;
    total += len;
  }
  return total;
}

TemporalElement TemporalElement::Union(const TemporalElement& other) const {
  if (other.empty() || intervals().data() == other.intervals().data()) {
    return *this;
  }
  if (empty()) return other;
  std::vector<Interval> merged(intervals().begin(), intervals().end());
  merged.insert(merged.end(), other.intervals().begin(),
                other.intervals().end());
  return Of(std::move(merged));
}

TemporalElement TemporalElement::Intersect(
    const TemporalElement& other) const {
  // The pieces of two canonical elements' intersection come out sorted
  // and never touch: a piece ends where an operand interval ends, and the
  // next piece starts no earlier than that interval's successor, which
  // canonical form keeps strictly later. So the result is canonical as
  // swept; count the pieces, then write them into one exact payload.
  auto sweep = [this, &other](auto&& emit) {
    size_t i = 0, j = 0;
    while (i < intervals_.size() && j < other.intervals_.size()) {
      const Interval& a = intervals_[i];
      const Interval& b = other.intervals_[j];
      const Chronon lo = std::max(a.begin, b.begin);
      const Chronon hi = std::min(a.end, b.end);
      if (lo < hi) emit(lo, hi);
      if (a.end <= b.end) {
        ++i;
      } else {
        ++j;
      }
    }
  };
  size_t pieces = 0;
  sweep([&pieces](Chronon, Chronon) { ++pieces; });
  SharedArray<Interval>::Builder builder(pieces);
  sweep([&builder](Chronon lo, Chronon hi) {
    builder.Emplace(Interval::Make(lo, hi));
  });
  TemporalElement element;
  element.intervals_ = std::move(builder).Build();
  return element;
}

TemporalElement TemporalElement::Difference(
    const TemporalElement& other) const {
  std::vector<Interval> result;
  size_t j = 0;
  for (Interval a : intervals()) {
    while (j < other.intervals_.size() &&
           other.intervals_[j].end <= a.begin) {
      ++j;
    }
    size_t k = j;
    while (!a.empty() && k < other.intervals_.size() &&
           other.intervals_[k].begin < a.end) {
      const Interval& b = other.intervals_[k];
      if (b.begin > a.begin) {
        result.push_back(Interval::Make(a.begin, b.begin));
      }
      a.begin = std::max(a.begin, b.end);
      if (b.end >= a.end) break;
      ++k;
    }
    if (!a.empty()) result.push_back(a);
  }
  return Of(std::move(result));
}

std::string TemporalElement::ToString() const {
  if (intervals_.empty()) return "[)";
  std::string out;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += " u ";
    out += intervals_[i].ToString();
  }
  return out;
}

size_t TemporalElement::Hash() const {
  size_t seed = intervals_.size();
  for (const Interval& i : intervals()) {
    seed = HashCombine(seed, HashValue(i.begin));
    seed = HashCombine(seed, HashValue(i.end));
  }
  return seed;
}

std::ostream& operator<<(std::ostream& os, const TemporalElement& element) {
  return os << element.ToString();
}

}  // namespace ttra
