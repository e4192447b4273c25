#include "snapshot/aggregate.h"

#include <map>

namespace ttra {

std::string_view AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "unknown";
}

Result<AggFunc> ParseAggFunc(std::string_view name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "avg") return AggFunc::kAvg;
  return InvalidArgumentError("unknown aggregate function: " +
                              std::string(name));
}

Result<ValueType> AggResultType(AggFunc func, ValueType input) {
  switch (func) {
    case AggFunc::kCount:
      return ValueType::kInt;
    case AggFunc::kSum:
      if (input == ValueType::kInt || input == ValueType::kDouble) {
        return input;
      }
      return TypeMismatchError("sum requires a numeric attribute; got " +
                               std::string(ValueTypeName(input)));
    case AggFunc::kAvg:
      if (input == ValueType::kInt || input == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      return TypeMismatchError("avg requires a numeric attribute; got " +
                               std::string(ValueTypeName(input)));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input;  // any totally-ordered domain
  }
  return InternalError("unhandled aggregate function");
}

Result<Schema> AggregateSchema(const Schema& input,
                               const std::vector<std::string>& group_attrs,
                               const std::vector<AggregateDef>& aggregates) {
  TTRA_ASSIGN_OR_RETURN(Schema group_schema, input.Project(group_attrs));
  std::vector<Attribute> attrs(group_schema.attributes().begin(),
                               group_schema.attributes().end());
  for (const AggregateDef& def : aggregates) {
    ValueType input_type = ValueType::kInt;  // irrelevant for count
    if (def.func != AggFunc::kCount) {
      auto index = input.IndexOf(def.attr);
      if (!index.has_value()) {
        return SchemaMismatchError("aggregate over unknown attribute: " +
                                   def.attr);
      }
      input_type = input.attribute(*index).type;
    }
    TTRA_ASSIGN_OR_RETURN(ValueType out_type,
                          AggResultType(def.func, input_type));
    attrs.push_back(Attribute{def.name, out_type});
  }
  return Schema::Make(std::move(attrs));
}

namespace {

/// Streaming accumulator for one aggregate column over one group.
class Accumulator {
 public:
  Accumulator(AggFunc func, ValueType input_type)
      : func_(func), input_type_(input_type) {}

  void Add(const Value& v) {
    ++count_;
    switch (func_) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == ValueType::kInt) {
          int_sum_ += v.AsInt();
          double_sum_ += static_cast<double>(v.AsInt());
        } else {
          double_sum_ += v.AsDouble();
        }
        break;
      case AggFunc::kMin:
        if (count_ == 1 || v < best_) best_ = v;
        break;
      case AggFunc::kMax:
        if (count_ == 1 || best_ < v) best_ = v;
        break;
    }
  }

  Value Finish() const {
    switch (func_) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count_));
      case AggFunc::kSum:
        return input_type_ == ValueType::kInt ? Value::Int(int_sum_)
                                              : Value::Double(double_sum_);
      case AggFunc::kAvg:
        return Value::Double(double_sum_ / static_cast<double>(count_));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return best_;
    }
    return Value::Int(0);
  }

 private:
  AggFunc func_;
  ValueType input_type_;
  size_t count_ = 0;
  int64_t int_sum_ = 0;
  double double_sum_ = 0.0;
  Value best_;
};

}  // namespace

Result<SnapshotState> Aggregate(const SnapshotState& state,
                                const std::vector<std::string>& group_attrs,
                                const std::vector<AggregateDef>& aggregates) {
  TTRA_ASSIGN_OR_RETURN(
      Schema schema, AggregateSchema(state.schema(), group_attrs, aggregates));
  // Resolve attribute positions once.
  std::vector<size_t> group_idx;
  group_idx.reserve(group_attrs.size());
  for (const std::string& name : group_attrs) {
    group_idx.push_back(*state.schema().IndexOf(name));
  }
  struct AggSlot {
    AggFunc func;
    size_t attr_idx;  // unused for count
    ValueType input_type;
  };
  std::vector<AggSlot> slots;
  slots.reserve(aggregates.size());
  for (const AggregateDef& def : aggregates) {
    AggSlot slot{def.func, 0, ValueType::kInt};
    if (def.func != AggFunc::kCount) {
      slot.attr_idx = *state.schema().IndexOf(def.attr);
      slot.input_type = state.schema().attribute(slot.attr_idx).type;
    }
    slots.push_back(slot);
  }

  std::map<std::vector<Value>, std::vector<Accumulator>> groups;
  for (const Tuple& tuple : state.tuples()) {
    std::vector<Value> key;
    key.reserve(group_idx.size());
    for (size_t i : group_idx) key.push_back(tuple.at(i));
    auto it = groups.find(key);
    if (it == groups.end()) {
      std::vector<Accumulator> accs;
      accs.reserve(slots.size());
      for (const AggSlot& slot : slots) {
        accs.emplace_back(slot.func, slot.input_type);
      }
      it = groups.emplace(std::move(key), std::move(accs)).first;
    }
    for (size_t a = 0; a < slots.size(); ++a) {
      it->second[a].Add(slots[a].func == AggFunc::kCount
                            ? Value::Int(0)
                            : tuple.at(slots[a].attr_idx));
    }
  }

  std::vector<Tuple> rows;
  rows.reserve(groups.size());
  for (const auto& [key, accs] : groups) {
    std::vector<Value> values = key;
    for (const Accumulator& acc : accs) values.push_back(acc.Finish());
    rows.emplace_back(std::move(values));
  }
  return SnapshotState::Make(std::move(schema), std::move(rows));
}

}  // namespace ttra
