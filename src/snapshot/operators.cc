#include "snapshot/operators.h"

#include <algorithm>
#include <unordered_map>

#include "snapshot/join_common.h"
#include "util/string_util.h"

namespace ttra::snapshot_ops {

namespace {

Status RequireUnionCompatible(const SnapshotState& lhs,
                              const SnapshotState& rhs,
                              std::string_view op_name) {
  if (lhs.schema() != rhs.schema()) {
    return SchemaMismatchError(std::string(op_name) +
                               " requires identical schemas; got " +
                               lhs.schema().ToString() + " vs " +
                               rhs.schema().ToString());
  }
  return Status::Ok();
}

// Note on ordering: concatenation of two tuples drawn from sorted-unique
// operands compares lexicographically by the left part first (fixed
// arity), so emitting the left operand in order with right-side candidates
// in order yields the canonical (sorted, duplicate-free) form directly.
// ConcatTuples/JoinKeyOf/SplitEquiJoin live in join_common.h, shared with
// the historical kernel.

}  // namespace

// The set kernels below walk both canonical operands once, deciding each
// step with one three-way Tuple::CanonicalOrder where std::merge/
// std::set_difference/std::set_intersection would evaluate `a < b` and
// then `b < a`. Each reproduces its std:: counterpart's output exactly,
// ties between unequal tuples (NaN) included.

Result<SnapshotState> Union(const SnapshotState& lhs,
                            const SnapshotState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "union"));
  const std::vector<Tuple>& a = lhs.tuples();
  const std::vector<Tuple>& b = rhs.tuples();
  std::vector<Tuple> merged;
  merged.reserve(a.size() + b.size());
  auto out = std::back_inserter(merged);
  // std::merge followed by std::unique: a tie emits the left tuple first,
  // and the right one is dropped if it directly follows an equal tuple.
  // Within one canonical operand neighbours differ, so only a right tuple
  // emitted right after the left tuple it tied with can be a duplicate.
  size_t i = 0, j = 0;
  bool after_tie = false;
  while (i < a.size() && j < b.size()) {
    const int order = Tuple::CanonicalOrder(a[i], b[j]);
    if (order > 0) {
      if (!after_tie || !(merged.back() == b[j])) *out++ = b[j];
      ++j;
    } else {
      *out++ = a[i++];
    }
    after_tie = order == 0;
  }
  if (j < b.size() && after_tie && merged.back() == b[j]) ++j;
  out = std::copy(a.begin() + i, a.end(), out);
  std::copy(b.begin() + j, b.end(), out);
  return SnapshotState::FromCanonical(lhs.schema(), std::move(merged));
}

Result<SnapshotState> Difference(const SnapshotState& lhs,
                                 const SnapshotState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "difference"));
  const std::vector<Tuple>& a = lhs.tuples();
  const std::vector<Tuple>& b = rhs.tuples();
  std::vector<Tuple> remaining;
  remaining.reserve(a.size());
  auto out = std::back_inserter(remaining);
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int order = Tuple::CanonicalOrder(a[i], b[j]);
    if (order < 0) {
      *out++ = a[i++];
    } else {
      if (order == 0) ++i;
      ++j;
    }
  }
  std::copy(a.begin() + i, a.end(), out);
  return SnapshotState::FromCanonical(lhs.schema(), std::move(remaining));
}

Result<SnapshotState> Product(const SnapshotState& lhs,
                              const SnapshotState& rhs) {
  if (Result<Schema> schema = lhs.schema().Concat(rhs.schema()); schema.ok()) {
    std::vector<Tuple> combined;
    // Guard the n*m reservation: the multiplication can overflow size_t,
    // and even when it does not, a huge product should grow organically
    // instead of failing up front on one giant allocation.
    const size_t n = lhs.size(), m = rhs.size();
    constexpr size_t kReserveCap = size_t{1} << 22;
    if (m != 0 && n <= kReserveCap / m) {
      combined.reserve(n * m);
    }
    for (const Tuple& a : lhs.tuples()) {
      for (const Tuple& b : rhs.tuples()) {
        combined.push_back(ConcatTuples(a, b));
      }
    }
    return SnapshotState::FromCanonical(*std::move(schema),
                                        std::move(combined));
  } else {
    return SchemaMismatchError(
        "product requires attribute-name-disjoint schemas (rename first): " +
        schema.status().message());
  }
}

Result<SnapshotState> Project(const SnapshotState& state,
                              const std::vector<std::string>& attributes) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, state.schema().Project(attributes));
  std::vector<size_t> indices;
  indices.reserve(attributes.size());
  for (const std::string& name : attributes) {
    indices.push_back(*state.schema().IndexOf(name));
  }
  std::vector<Tuple> projected;
  projected.reserve(state.size());
  for (const Tuple& tuple : state.tuples()) {
    Tuple::Builder builder(indices.size());
    for (size_t i : indices) builder.Add(tuple.at(i));
    projected.push_back(std::move(builder).Build());
  }
  return SnapshotState::Make(std::move(schema), std::move(projected));
}

Result<SnapshotState> Select(const SnapshotState& state,
                             const Predicate& predicate) {
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate bound,
                        BoundPredicate::Bind(predicate, state.schema()));
  // Count first, so the result is one exact allocation: evaluating a
  // bound predicate twice costs less than regrowing the vector.
  const size_t kept = static_cast<size_t>(
      std::count_if(state.tuples().begin(), state.tuples().end(),
                    [&bound](const Tuple& t) { return bound.Eval(t); }));
  // A predicate that kept everything returns the input unchanged — states
  // are copy-on-write, so this shares the representation.
  if (kept == state.size()) return state;
  std::vector<Tuple> selected;
  selected.reserve(kept);
  for (const Tuple& tuple : state.tuples()) {
    if (bound.Eval(tuple)) selected.push_back(tuple);
  }
  // A subsequence of a canonical tuple vector is canonical.
  return SnapshotState::FromCanonical(state.schema(), std::move(selected));
}

Result<SnapshotState> Intersect(const SnapshotState& lhs,
                                const SnapshotState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "intersect"));
  const std::vector<Tuple>& a = lhs.tuples();
  const std::vector<Tuple>& b = rhs.tuples();
  std::vector<Tuple> shared;
  shared.reserve(std::min(a.size(), b.size()));
  auto out = std::back_inserter(shared);
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int order = Tuple::CanonicalOrder(a[i], b[j]);
    if (order < 0) {
      ++i;
    } else {
      if (order == 0) *out++ = a[i++];
      ++j;
    }
  }
  return SnapshotState::FromCanonical(lhs.schema(), std::move(shared));
}

Result<SnapshotState> ThetaJoin(const SnapshotState& lhs,
                                const SnapshotState& rhs,
                                const Predicate& predicate) {
  Result<Schema> concat = lhs.schema().Concat(rhs.schema());
  if (!concat.ok()) {
    // Same report as Product, so σ_F(E1 × E2) and its fused form agree.
    return SchemaMismatchError(
        "product requires attribute-name-disjoint schemas (rename first): " +
        concat.status().message());
  }
  Schema schema = *std::move(concat);
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate bound,
                        BoundPredicate::Bind(predicate, schema));

  // Split the predicate into hash-join keys (top-level attr = attr
  // conjuncts across the operands) and a residual applied per candidate.
  // Both predicates are bound to the product scheme and read a candidate
  // pair in place, so a rejected pair is never concatenated.
  const EquiJoinSplit split =
      SplitEquiJoin(predicate, lhs.schema(), rhs.schema());
  const std::vector<size_t>& lhs_keys = split.lhs_keys;
  const std::vector<size_t>& rhs_keys = split.rhs_keys;
  const bool check_residual = split.has_residual();
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate residual,
                        BoundPredicate::Bind(split.residual, schema));

  std::vector<Tuple> joined;
  if (!split.has_keys()) {
    // No equality keys: block nested loop over the operands, evaluating
    // the predicate per pair without materializing the product state.
    for (const Tuple& a : lhs.tuples()) {
      for (const Tuple& b : rhs.tuples()) {
        if (bound.Eval(a, b)) joined.push_back(ConcatTuples(a, b));
      }
    }
    return SnapshotState::FromCanonical(std::move(schema), std::move(joined));
  }

  if (rhs.size() <= lhs.size()) {
    // Build on rhs, probe lhs in order: buckets hold rhs candidates in
    // sorted order, so the output is emitted canonically.
    std::unordered_map<Tuple, std::vector<size_t>> buckets;
    buckets.reserve(rhs.size());
    for (size_t j = 0; j < rhs.size(); ++j) {
      buckets[JoinKeyOf(rhs.tuples()[j], rhs_keys)].push_back(j);
    }
    for (const Tuple& a : lhs.tuples()) {
      auto it = buckets.find(JoinKeyOf(a, lhs_keys));
      if (it == buckets.end()) continue;
      for (size_t j : it->second) {
        const Tuple& b = rhs.tuples()[j];
        if (check_residual && !residual.Eval(a, b)) continue;
        joined.push_back(ConcatTuples(a, b));
      }
    }
    return SnapshotState::FromCanonical(std::move(schema), std::move(joined));
  }

  // lhs is smaller: build on it and probe rhs. Probing out of lhs order
  // scrambles the output, so restore canonical order with one sort of the
  // (unique) result — still O(result), never O(product).
  std::unordered_map<Tuple, std::vector<size_t>> buckets;
  buckets.reserve(lhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) {
    buckets[JoinKeyOf(lhs.tuples()[i], lhs_keys)].push_back(i);
  }
  for (const Tuple& b : rhs.tuples()) {
    auto it = buckets.find(JoinKeyOf(b, rhs_keys));
    if (it == buckets.end()) continue;
    for (size_t i : it->second) {
      const Tuple& a = lhs.tuples()[i];
      if (check_residual && !residual.Eval(a, b)) continue;
      joined.push_back(ConcatTuples(a, b));
    }
  }
  std::sort(joined.begin(), joined.end());
  return SnapshotState::FromCanonical(std::move(schema), std::move(joined));
}

Result<SnapshotState> NaturalJoin(const SnapshotState& lhs,
                                  const SnapshotState& rhs) {
  // Shared attributes join positionally by name; result schema is lhs's
  // schema followed by rhs's non-shared attributes, as in Maier.
  std::vector<size_t> lhs_keys, rhs_keys;
  std::vector<size_t> rhs_only;
  for (size_t j = 0; j < rhs.schema().size(); ++j) {
    const Attribute& attr = rhs.schema().attribute(j);
    auto i = lhs.schema().IndexOf(attr.name);
    if (i.has_value()) {
      if (lhs.schema().attribute(*i).type != attr.type) {
        return SchemaMismatchError("natural join attribute '" + attr.name +
                                   "' has mismatched types");
      }
      lhs_keys.push_back(*i);
      rhs_keys.push_back(j);
    } else {
      rhs_only.push_back(j);
    }
  }
  std::vector<Attribute> result_attrs(lhs.schema().attributes().begin(),
                                     lhs.schema().attributes().end());
  for (size_t j : rhs_only) result_attrs.push_back(rhs.schema().attribute(j));
  TTRA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(result_attrs)));

  auto emit = [&](const Tuple& a, const Tuple& b, std::vector<Tuple>& out) {
    Tuple::Builder builder(a.size() + rhs_only.size());
    builder.Append(a.values());
    for (size_t j : rhs_only) builder.Add(b.at(j));
    out.push_back(std::move(builder).Build());
  };

  std::vector<Tuple> joined;
  if (lhs_keys.empty()) {
    // Disjoint schemes: degenerates to the product.
    for (const Tuple& a : lhs.tuples()) {
      for (const Tuple& b : rhs.tuples()) emit(a, b, joined);
    }
    return SnapshotState::FromCanonical(std::move(schema), std::move(joined));
  }

  // Hash the rhs on the shared attributes and probe lhs in order. Bucket
  // members agree on every shared column, so within a bucket the rhs sort
  // order equals the order of their rhs-only projections — the output is
  // emitted canonically.
  std::unordered_map<Tuple, std::vector<size_t>> buckets;
  buckets.reserve(rhs.size());
  for (size_t j = 0; j < rhs.size(); ++j) {
    buckets[JoinKeyOf(rhs.tuples()[j], rhs_keys)].push_back(j);
  }
  for (const Tuple& a : lhs.tuples()) {
    auto it = buckets.find(JoinKeyOf(a, lhs_keys));
    if (it == buckets.end()) continue;
    for (size_t j : it->second) emit(a, rhs.tuples()[j], joined);
  }
  return SnapshotState::FromCanonical(std::move(schema), std::move(joined));
}

Result<SnapshotState> Rename(const SnapshotState& state, std::string_view from,
                             std::string_view to) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, state.schema().Rename(from, to));
  // Renaming changes no tuple, so canonical order is preserved.
  return SnapshotState::FromCanonical(std::move(schema), state.tuples());
}

}  // namespace ttra::snapshot_ops
