#include "snapshot/join_common.h"

#include <optional>
#include <string>
#include <utility>

namespace ttra::snapshot_ops {

void CollectConjuncts(const Predicate& p, std::vector<Predicate>& out) {
  if (p.kind() == Predicate::Kind::kAnd) {
    CollectConjuncts(p.left(), out);
    CollectConjuncts(p.right(), out);
  } else {
    out.push_back(p);
  }
}

namespace {

struct EquiPair {
  size_t lhs_index;
  size_t rhs_index;
};

// An attr = attr conjunct usable as a hash-join key: one side resolves in
// the left scheme, the other in the right scheme, with identical types.
std::optional<EquiPair> AsEquiPair(const Predicate& p, const Schema& lhs,
                                   const Schema& rhs) {
  if (p.kind() != Predicate::Kind::kComparison || p.op() != CompareOp::kEq ||
      !p.lhs().is_attr() || !p.rhs().is_attr()) {
    return std::nullopt;
  }
  const std::string& a = p.lhs().attr_name();
  const std::string& b = p.rhs().attr_name();
  // Product schemes are name-disjoint, so each name resolves on one side.
  if (auto li = lhs.IndexOf(a)) {
    auto rj = rhs.IndexOf(b);
    if (rj && lhs.attribute(*li).type == rhs.attribute(*rj).type) {
      return EquiPair{*li, *rj};
    }
    return std::nullopt;
  }
  if (auto li = lhs.IndexOf(b)) {
    auto rj = rhs.IndexOf(a);
    if (rj && lhs.attribute(*li).type == rhs.attribute(*rj).type) {
      return EquiPair{*li, *rj};
    }
  }
  return std::nullopt;
}

}  // namespace

EquiJoinSplit SplitEquiJoin(const Predicate& predicate, const Schema& lhs,
                            const Schema& rhs) {
  std::vector<Predicate> conjuncts;
  CollectConjuncts(predicate, conjuncts);
  EquiJoinSplit split;
  for (const Predicate& c : conjuncts) {
    if (auto pair = AsEquiPair(c, lhs, rhs)) {
      split.lhs_keys.push_back(pair->lhs_index);
      split.rhs_keys.push_back(pair->rhs_index);
    } else if (!c.IsTrueLiteral()) {
      split.residual = split.residual.IsTrueLiteral()
                           ? c
                           : Predicate::And(std::move(split.residual), c);
    }
  }
  return split;
}

Tuple JoinKeyOf(const Tuple& t, const std::vector<size_t>& indices) {
  Tuple::Builder builder(indices.size());
  for (size_t i : indices) builder.Add(t.at(i));
  return std::move(builder).Build();
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple::Builder builder(a.size() + b.size());
  builder.Append(a.values());
  builder.Append(b.values());
  return std::move(builder).Build();
}

}  // namespace ttra::snapshot_ops
