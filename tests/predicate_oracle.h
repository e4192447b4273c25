#ifndef TTRA_TESTS_PREDICATE_ORACLE_H_
#define TTRA_TESTS_PREDICATE_ORACLE_H_

// The by-tuple reference evaluator of the selection condition F, read off
// the paper's domain 𝓕: each comparison resolves its attribute operands by
// name and compares copies through Value::Compare, and `and`/`or`
// short-circuit left to right. Tests check BoundPredicate against it.

#include "snapshot/predicate.h"

namespace ttra::testutil {

inline Result<Value> ReferenceResolve(const Operand& operand,
                                      const Schema& schema,
                                      const Tuple& tuple) {
  if (!operand.is_attr()) return operand.constant();
  auto index = schema.IndexOf(operand.attr_name());
  if (!index.has_value()) {
    return SchemaMismatchError("predicate references unknown attribute: " +
                               operand.attr_name());
  }
  return tuple.at(*index);
}

inline Result<bool> ReferenceEval(const Predicate& predicate,
                                  const Schema& schema, const Tuple& tuple) {
  switch (predicate.kind()) {
    case Predicate::Kind::kConst:
      return predicate.const_value();
    case Predicate::Kind::kComparison: {
      TTRA_ASSIGN_OR_RETURN(Value a,
                            ReferenceResolve(predicate.lhs(), schema, tuple));
      TTRA_ASSIGN_OR_RETURN(Value b,
                            ReferenceResolve(predicate.rhs(), schema, tuple));
      TTRA_ASSIGN_OR_RETURN(int cmp, Value::Compare(a, b));
      switch (predicate.op()) {
        case CompareOp::kEq:
          return cmp == 0;
        case CompareOp::kNe:
          return cmp != 0;
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        case CompareOp::kGe:
          return cmp >= 0;
      }
      return InternalError("unhandled comparison");
    }
    case Predicate::Kind::kAnd: {
      TTRA_ASSIGN_OR_RETURN(bool a,
                            ReferenceEval(predicate.left(), schema, tuple));
      if (!a) return false;
      return ReferenceEval(predicate.right(), schema, tuple);
    }
    case Predicate::Kind::kOr: {
      TTRA_ASSIGN_OR_RETURN(bool a,
                            ReferenceEval(predicate.left(), schema, tuple));
      if (a) return true;
      return ReferenceEval(predicate.right(), schema, tuple);
    }
    case Predicate::Kind::kNot: {
      TTRA_ASSIGN_OR_RETURN(bool a,
                            ReferenceEval(predicate.left(), schema, tuple));
      return !a;
    }
  }
  return InternalError("unhandled predicate kind");
}

}  // namespace ttra::testutil

#endif  // TTRA_TESTS_PREDICATE_ORACLE_H_
