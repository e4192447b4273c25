#include "workload/generator.h"

#include <algorithm>

namespace ttra::workload {

Generator::Generator(uint64_t seed, GeneratorOptions options)
    : rng_(seed), options_(options) {}

Schema Generator::RandomSchema() {
  const size_t arity =
      options_.min_attributes +
      rng_.Uniform(options_.max_attributes - options_.min_attributes + 1);
  return RandomSchema(arity);
}

Schema Generator::RandomSchema(size_t arity) {
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    const ValueType type = static_cast<ValueType>(rng_.Uniform(5));
    attrs.push_back(Attribute{"a" + std::to_string(i), type});
  }
  return *Schema::Make(std::move(attrs));
}

Value Generator::RandomValue(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return Value::Int(rng_.UniformInt(0, options_.value_range - 1));
    case ValueType::kDouble:
      return Value::Double(
          static_cast<double>(rng_.UniformInt(0, options_.value_range - 1)) /
          2.0);
    case ValueType::kString:
      return Value::String(
          rng_.AlphaNum(1 + rng_.Uniform(options_.max_string_length)));
    case ValueType::kBool:
      return Value::Bool(rng_.Bernoulli(0.5));
    case ValueType::kUserTime:
      return Value::Time(rng_.UniformInt(0, options_.time_horizon - 1));
  }
  return Value::Int(0);
}

Tuple Generator::RandomTuple(const Schema& schema) {
  Tuple::Builder builder(schema.size());
  for (const Attribute& attr : schema.attributes()) {
    builder.Add(RandomValue(attr.type));
  }
  return std::move(builder).Build();
}

SnapshotState Generator::RandomState(const Schema& schema, size_t tuples) {
  std::vector<Tuple> rows;
  rows.reserve(tuples);
  for (size_t i = 0; i < tuples; ++i) rows.push_back(RandomTuple(schema));
  return *SnapshotState::Make(schema, std::move(rows));
}

TemporalElement Generator::RandomElement() {
  const size_t n = 1 + rng_.Uniform(options_.max_intervals_per_element);
  std::vector<Interval> intervals;
  intervals.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Chronon begin = rng_.UniformInt(0, options_.time_horizon - 2);
    const Chronon length =
        rng_.UniformInt(1, std::max<Chronon>(1, options_.time_horizon / 4));
    intervals.push_back(
        Interval::Make(begin, std::min(begin + length,
                                       options_.time_horizon)));
  }
  return TemporalElement::Of(std::move(intervals));
}

HistoricalState Generator::RandomHistoricalState(const Schema& schema,
                                                 size_t tuples) {
  std::vector<HistoricalTuple> rows;
  rows.reserve(tuples);
  for (size_t i = 0; i < tuples; ++i) {
    rows.push_back(HistoricalTuple{RandomTuple(schema), RandomElement()});
  }
  return *HistoricalState::Make(schema, std::move(rows));
}

Predicate Generator::RandomPredicate(const Schema& schema, size_t depth) {
  if (schema.empty()) return Predicate::True();
  if (depth == 0 || rng_.Bernoulli(0.4)) {
    // Leaf: attr <op> constant of the attribute's type.
    const size_t i = rng_.Uniform(schema.size());
    const Attribute& attr = schema.attribute(i);
    const CompareOp op = static_cast<CompareOp>(rng_.Uniform(6));
    return Predicate::AttrCompare(attr.name, op, RandomValue(attr.type));
  }
  switch (rng_.Uniform(3)) {
    case 0:
      return Predicate::And(RandomPredicate(schema, depth - 1),
                            RandomPredicate(schema, depth - 1));
    case 1:
      return Predicate::Or(RandomPredicate(schema, depth - 1),
                           RandomPredicate(schema, depth - 1));
    default:
      return Predicate::Not(RandomPredicate(schema, depth - 1));
  }
}

SnapshotState Generator::MutateState(const SnapshotState& state,
                                     double change_fraction) {
  std::vector<Tuple> rows;
  rows.reserve(state.size() + 4);
  size_t removed = 0;
  for (const Tuple& t : state.tuples()) {
    if (rng_.Bernoulli(change_fraction)) {
      ++removed;
    } else {
      rows.push_back(t);
    }
  }
  const size_t inserted = removed + (rng_.Bernoulli(0.5) ? 1 : 0);
  for (size_t i = 0; i < inserted; ++i) {
    rows.push_back(RandomTuple(state.schema()));
  }
  return *SnapshotState::Make(state.schema(), std::move(rows));
}

HistoricalState Generator::MutateState(const HistoricalState& state,
                                       double change_fraction) {
  std::vector<HistoricalTuple> rows;
  rows.reserve(state.size() + 4);
  size_t removed = 0;
  for (const HistoricalTuple& ht : state.tuples()) {
    if (rng_.Bernoulli(change_fraction)) {
      ++removed;
    } else if (rng_.Bernoulli(change_fraction)) {
      // Keep the fact but extend/alter its history.
      rows.push_back(
          HistoricalTuple{ht.tuple, ht.valid.Union(RandomElement())});
    } else {
      rows.push_back(ht);
    }
  }
  const size_t inserted = removed + (rng_.Bernoulli(0.5) ? 1 : 0);
  for (size_t i = 0; i < inserted; ++i) {
    rows.push_back(
        HistoricalTuple{RandomTuple(state.schema()), RandomElement()});
  }
  return *HistoricalState::Make(state.schema(), std::move(rows));
}

std::vector<Command> Generator::RandomCommandStream(const std::string& name,
                                                    RelationType type,
                                                    size_t updates,
                                                    size_t state_size,
                                                    double change_fraction) {
  std::vector<Command> commands;
  commands.reserve(updates + 1);
  const Schema schema = RandomSchema();
  commands.push_back(DefineRelationCmd{name, type, schema});
  if (HoldsSnapshotStates(type)) {
    SnapshotState state = RandomState(schema, state_size);
    for (size_t i = 0; i < updates; ++i) {
      commands.push_back(ModifySnapshotCmd{name, state});
      state = MutateState(state, change_fraction);
    }
  } else {
    HistoricalState state = RandomHistoricalState(schema, state_size);
    for (size_t i = 0; i < updates; ++i) {
      commands.push_back(ModifyHistoricalCmd{name, state});
      state = MutateState(state, change_fraction);
    }
  }
  return commands;
}

lang::Expr Generator::RandomExpr(const std::vector<lang::Expr>& bases,
                                 const Schema& schema, size_t depth) {
  if (depth == 0 || bases.empty()) {
    if (bases.empty()) return lang::Expr::Const(SnapshotState::Empty(schema));
    return bases[rng_.Uniform(bases.size())];
  }
  switch (rng_.Uniform(5)) {
    case 0:
      return lang::Expr::Binary(lang::BinaryOp::kUnion,
                                RandomExpr(bases, schema, depth - 1),
                                RandomExpr(bases, schema, depth - 1));
    case 1:
      return lang::Expr::Binary(lang::BinaryOp::kMinus,
                                RandomExpr(bases, schema, depth - 1),
                                RandomExpr(bases, schema, depth - 1));
    case 2:
      return lang::Expr::Binary(lang::BinaryOp::kIntersect,
                                RandomExpr(bases, schema, depth - 1),
                                RandomExpr(bases, schema, depth - 1));
    case 3:
      return lang::Expr::Select(RandomPredicate(schema),
                                RandomExpr(bases, schema, depth - 1));
    default:
      return lang::Expr::Project(schema.Names(),
                                 RandomExpr(bases, schema, depth - 1));
  }
}

}  // namespace ttra::workload
