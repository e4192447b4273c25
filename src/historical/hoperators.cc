#include "historical/hoperators.h"

#include <algorithm>
#include <unordered_map>

#include "snapshot/join_common.h"

namespace ttra::historical_ops {

namespace {

Status RequireUnionCompatible(const HistoricalState& lhs,
                              const HistoricalState& rhs,
                              std::string_view op_name) {
  if (lhs.schema() != rhs.schema()) {
    return SchemaMismatchError(std::string(op_name) +
                               " requires identical schemas; got " +
                               lhs.schema().ToString() + " vs " +
                               rhs.schema().ToString());
  }
  return Status::Ok();
}

// The predicate decomposition and key/concat helpers are shared with the
// snapshot join kernel (snapshot/join_common.h).
using snapshot_ops::ConcatTuples;
using snapshot_ops::EquiJoinSplit;
using snapshot_ops::JoinKeyOf;
using snapshot_ops::SplitEquiJoin;

}  // namespace

Result<HistoricalState> Union(const HistoricalState& lhs,
                              const HistoricalState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "hunion"));
  std::vector<HistoricalTuple> merged = lhs.tuples();
  merged.insert(merged.end(), rhs.tuples().begin(), rhs.tuples().end());
  return HistoricalState::Make(lhs.schema(), std::move(merged));
}

Result<HistoricalState> Difference(const HistoricalState& lhs,
                                   const HistoricalState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "hdiff"));
  std::vector<HistoricalTuple> remaining;
  for (const HistoricalTuple& ht : lhs.tuples()) {
    TemporalElement survived =
        ht.valid.Difference(rhs.ValidTimeOf(ht.tuple));
    if (!survived.empty()) {
      remaining.push_back(HistoricalTuple{ht.tuple, std::move(survived)});
    }
  }
  // Value tuples stay unique and in lhs order; empties were dropped.
  return HistoricalState::FromCanonical(lhs.schema(), std::move(remaining));
}

Result<HistoricalState> Product(const HistoricalState& lhs,
                                const HistoricalState& rhs) {
  if (Result<Schema> schema = lhs.schema().Concat(rhs.schema()); schema.ok()) {
    std::vector<HistoricalTuple> combined;
    for (const HistoricalTuple& a : lhs.tuples()) {
      for (const HistoricalTuple& b : rhs.tuples()) {
        TemporalElement both = a.valid.Intersect(b.valid);
        if (both.empty()) continue;
        combined.push_back(HistoricalTuple{ConcatTuples(a.tuple, b.tuple),
                                           std::move(both)});
      }
    }
    // Concatenated value tuples of canonical operands, emitted lhs-major:
    // unique and sorted, with empty elements already dropped.
    return HistoricalState::FromCanonical(*std::move(schema),
                                          std::move(combined));
  } else {
    return SchemaMismatchError(
        "product requires attribute-name-disjoint schemas (rename first): " +
        schema.status().message());
  }
}

Result<HistoricalState> Project(const HistoricalState& state,
                                const std::vector<std::string>& attributes) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, state.schema().Project(attributes));
  std::vector<size_t> indices;
  indices.reserve(attributes.size());
  for (const std::string& name : attributes) {
    indices.push_back(*state.schema().IndexOf(name));
  }
  std::vector<HistoricalTuple> projected;
  projected.reserve(state.size());
  for (const HistoricalTuple& ht : state.tuples()) {
    Tuple::Builder builder(indices.size());
    for (size_t i : indices) builder.Add(ht.tuple.at(i));
    projected.push_back(HistoricalTuple{std::move(builder).Build(), ht.valid});
  }
  return HistoricalState::Make(std::move(schema), std::move(projected));
}

Result<HistoricalState> Select(const HistoricalState& state,
                               const Predicate& predicate) {
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate bound,
                        BoundPredicate::Bind(predicate, state.schema()));
  // Count first, so the result is one exact allocation (as in the
  // snapshot kernel).
  const size_t kept = static_cast<size_t>(std::count_if(
      state.tuples().begin(), state.tuples().end(),
      [&bound](const HistoricalTuple& ht) { return bound.Eval(ht.tuple); }));
  // A predicate that kept everything returns the input unchanged (states
  // are copy-on-write); a kept subsequence is still canonical.
  if (kept == state.size()) return state;
  std::vector<HistoricalTuple> selected;
  selected.reserve(kept);
  for (const HistoricalTuple& ht : state.tuples()) {
    if (bound.Eval(ht.tuple)) selected.push_back(ht);
  }
  return HistoricalState::FromCanonical(state.schema(), std::move(selected));
}

Result<HistoricalState> Delta(const HistoricalState& state,
                              const TemporalPred& pred,
                              const TemporalExpr& projection) {
  std::vector<HistoricalTuple> result;
  for (const HistoricalTuple& ht : state.tuples()) {
    if (!pred.Eval(ht.valid)) continue;
    TemporalElement projected = projection.Eval(ht.valid);
    if (projected.empty()) continue;
    result.push_back(HistoricalTuple{ht.tuple, std::move(projected)});
  }
  return HistoricalState::FromCanonical(state.schema(), std::move(result));
}

Result<HistoricalState> Intersect(const HistoricalState& lhs,
                                  const HistoricalState& rhs) {
  TTRA_RETURN_IF_ERROR(RequireUnionCompatible(lhs, rhs, "hintersect"));
  std::vector<HistoricalTuple> shared;
  for (const HistoricalTuple& ht : lhs.tuples()) {
    TemporalElement both = ht.valid.Intersect(rhs.ValidTimeOf(ht.tuple));
    if (!both.empty()) {
      shared.push_back(HistoricalTuple{ht.tuple, std::move(both)});
    }
  }
  return HistoricalState::FromCanonical(lhs.schema(), std::move(shared));
}

Result<HistoricalState> ThetaJoin(const HistoricalState& lhs,
                                  const HistoricalState& rhs,
                                  const Predicate& predicate) {
  Result<Schema> concat = lhs.schema().Concat(rhs.schema());
  if (!concat.ok()) {
    // Same report as Product, so σ̂_F(E1 ×̂ E2) and its fused form agree.
    return SchemaMismatchError(
        "product requires attribute-name-disjoint schemas (rename first): " +
        concat.status().message());
  }
  Schema schema = *std::move(concat);
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate bound,
                        BoundPredicate::Bind(predicate, schema));

  // As in the snapshot kernel, both predicates read a candidate pair in
  // place; a pair is concatenated only once it is kept.
  const EquiJoinSplit split =
      SplitEquiJoin(predicate, lhs.schema(), rhs.schema());
  const std::vector<size_t>& lhs_keys = split.lhs_keys;
  const std::vector<size_t>& rhs_keys = split.rhs_keys;
  const bool check_residual = split.has_residual();
  TTRA_ASSIGN_OR_RETURN(const BoundPredicate residual,
                        BoundPredicate::Bind(split.residual, schema));

  std::vector<HistoricalTuple> joined;
  auto emit = [&joined](const HistoricalTuple& a, const HistoricalTuple& b) {
    TemporalElement both = a.valid.Intersect(b.valid);
    if (both.empty()) return;
    joined.push_back(
        HistoricalTuple{ConcatTuples(a.tuple, b.tuple), std::move(both)});
  };

  if (!split.has_keys()) {
    // No equality keys: evaluate the whole predicate per pair without
    // materializing the product state.
    for (const HistoricalTuple& a : lhs.tuples()) {
      for (const HistoricalTuple& b : rhs.tuples()) {
        if (bound.Eval(a.tuple, b.tuple)) emit(a, b);
      }
    }
    return HistoricalState::FromCanonical(std::move(schema),
                                          std::move(joined));
  }

  // Hash the rhs on the key attributes and probe lhs in order, which
  // emits the result canonically (buckets preserve rhs sort order).
  std::unordered_map<Tuple, std::vector<size_t>> buckets;
  buckets.reserve(rhs.size());
  for (size_t j = 0; j < rhs.size(); ++j) {
    buckets[JoinKeyOf(rhs.tuples()[j].tuple, rhs_keys)].push_back(j);
  }
  for (const HistoricalTuple& a : lhs.tuples()) {
    auto it = buckets.find(JoinKeyOf(a.tuple, lhs_keys));
    if (it == buckets.end()) continue;
    for (size_t j : it->second) {
      const HistoricalTuple& b = rhs.tuples()[j];
      if (check_residual && !residual.Eval(a.tuple, b.tuple)) continue;
      emit(a, b);
    }
  }
  return HistoricalState::FromCanonical(std::move(schema), std::move(joined));
}

Result<HistoricalState> NaturalJoin(const HistoricalState& lhs,
                                    const HistoricalState& rhs) {
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

  auto emit = [&](const HistoricalTuple& a, const HistoricalTuple& b,
                  std::vector<HistoricalTuple>& out) {
    TemporalElement both = a.valid.Intersect(b.valid);
    if (both.empty()) return;
    Tuple::Builder builder(a.tuple.size() + rhs_only.size());
    builder.Append(a.tuple.values());
    for (size_t j : rhs_only) builder.Add(b.tuple.at(j));
    out.push_back(HistoricalTuple{std::move(builder).Build(), std::move(both)});
  };

  std::vector<HistoricalTuple> joined;
  if (lhs_keys.empty()) {
    for (const HistoricalTuple& a : lhs.tuples()) {
      for (const HistoricalTuple& b : rhs.tuples()) emit(a, b, joined);
    }
    return HistoricalState::FromCanonical(std::move(schema),
                                          std::move(joined));
  }

  // Hash path, probing lhs in order: bucket members agree on the shared
  // columns, so their rhs-only projections stay sorted within a bucket and
  // the output is canonical.
  std::unordered_map<Tuple, std::vector<size_t>> buckets;
  buckets.reserve(rhs.size());
  for (size_t j = 0; j < rhs.size(); ++j) {
    buckets[JoinKeyOf(rhs.tuples()[j].tuple, rhs_keys)].push_back(j);
  }
  for (const HistoricalTuple& a : lhs.tuples()) {
    auto it = buckets.find(JoinKeyOf(a.tuple, lhs_keys));
    if (it == buckets.end()) continue;
    for (size_t j : it->second) emit(a, rhs.tuples()[j], joined);
  }
  return HistoricalState::FromCanonical(std::move(schema), std::move(joined));
}

Result<HistoricalState> Rename(const HistoricalState& state,
                               std::string_view from, std::string_view to) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, state.schema().Rename(from, to));
  // Renaming changes no tuple, so canonical order is preserved.
  return HistoricalState::FromCanonical(std::move(schema), state.tuples());
}

Result<HistoricalState> FromSnapshot(const SnapshotState& state,
                                     const TemporalElement& valid) {
  if (valid.empty()) return HistoricalState::Empty(state.schema());
  std::vector<HistoricalTuple> tuples;
  tuples.reserve(state.size());
  for (const Tuple& t : state.tuples()) {
    tuples.push_back(HistoricalTuple{t, valid});
  }
  // Snapshot tuples are sorted and unique; every element is `valid`.
  return HistoricalState::FromCanonical(state.schema(), std::move(tuples));
}

}  // namespace ttra::historical_ops
