#include "workload.h"

#include <algorithm>

#include "historical/hoperators.h"
#include "snapshot/operators.h"
#include "storage/serialize.h"
#include "util/random.h"

namespace e2e {

using namespace ttra;

namespace {

// Relations of the long-history workloads: one of each paper type.
constexpr char kAcct[] = "acct";  // rollback
constexpr char kPos[] = "pos";    // temporal
constexpr char kCfg[] = "cfg";    // snapshot
constexpr char kHist[] = "hist";  // historical

// Small value domains keep every state bounded: appends and deletes of
// `id` in [0, kIds) balance near kIds tuples.
constexpr int64_t kIds = 32;
constexpr int64_t kOwners = 8;
constexpr int64_t kTitles = 4;
constexpr int64_t kCfgKeys = 8;
constexpr Chronon kHorizon = 1000;

Schema AcctSchema() {
  return *Schema::Make({{"id", ValueType::kInt},
                        {"owner", ValueType::kString},
                        {"bal", ValueType::kInt}});
}
Schema PosSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"title", ValueType::kString}});
}
Schema CfgSchema() {
  return *Schema::Make({{"k", ValueType::kString}, {"v", ValueType::kInt}});
}
Schema HistSchema() {
  return *Schema::Make({{"id", ValueType::kInt}, {"dept", ValueType::kString}});
}

std::string Str(const char* prefix, int64_t n) {
  return prefix + std::to_string(n);
}

Tuple AcctTuple(Rng& rng) {
  return Tuple{Value::Int(rng.UniformInt(0, kIds - 1)),
               Value::String(Str("o", rng.UniformInt(0, kOwners - 1))),
               Value::Int(rng.UniformInt(0, 999))};
}

/// A random interval [a, b) inside the valid-time horizon.
std::pair<Chronon, Chronon> Span(Rng& rng) {
  const Chronon a = rng.UniformInt(0, kHorizon - 2);
  const Chronon b = rng.UniformInt(a + 1, std::min(kHorizon, a + 300));
  return {a, b};
}

HistoricalTuple PosTuple(Rng& rng) {
  auto [a, b] = Span(rng);
  return HistoricalTuple{
      Tuple{Value::Int(rng.UniformInt(0, kIds - 1)),
            Value::String(Str("t", rng.UniformInt(0, kTitles - 1)))},
      TemporalElement::Span(a, b)};
}

std::string Interval(Chronon a, Chronon b) {
  return "[" + std::to_string(a) + ", " + std::to_string(b) + ")";
}

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) { Add(std::string_view(reinterpret_cast<char*>(&v), 8)); }
};

void DigestOp(Fnv& fnv, const Op& op) {
  fnv.Add(static_cast<uint64_t>(op.kind));
  fnv.Add(op.relation);
  fnv.Add(op.text);
  fnv.Add(op.n1);
  fnv.Add(op.n2);
  fnv.Add(static_cast<uint64_t>(op.x));
  fnv.Add(static_cast<uint64_t>(op.a));
  fnv.Add(static_cast<uint64_t>(op.b));
}

/// The four-relation preload of txn_long_history and asof_query: a
/// definition per paper type, then `states` constant states on each of the
/// rollback and temporal relations, each one tuple away from the last.
void GeneratePreload(Rng& rng, size_t states, Inputs& in) {
  in.preload.push_back(DefineRelationCmd{kAcct, RelationType::kRollback,
                                         AcctSchema()});
  in.preload.push_back(DefineRelationCmd{kPos, RelationType::kTemporal,
                                         PosSchema()});
  in.preload.push_back(DefineRelationCmd{kCfg, RelationType::kSnapshot,
                                         CfgSchema()});
  in.preload.push_back(DefineRelationCmd{kHist, RelationType::kHistorical,
                                         HistSchema()});
  std::vector<Tuple> cfg;
  for (int64_t k = 0; k < kCfgKeys; ++k) {
    cfg.push_back(Tuple{Value::String(Str("k", k)), Value::Int(0)});
  }
  in.preload.push_back(
      ModifySnapshotCmd{kCfg, *SnapshotState::Make(CfgSchema(), cfg)});
  std::vector<HistoricalTuple> hist;
  for (int i = 0; i < 24; ++i) {
    auto [a, b] = Span(rng);
    hist.push_back(HistoricalTuple{
        Tuple{Value::Int(rng.UniformInt(0, kIds - 1)),
              Value::String(Str("d", rng.UniformInt(0, 3)))},
        TemporalElement::Span(a, b)});
  }
  in.preload.push_back(
      ModifyHistoricalCmd{kHist, *HistoricalState::Make(HistSchema(), hist)});

  std::vector<Tuple> acct;
  for (int64_t i = 0; i < kIds; ++i) acct.push_back(AcctTuple(rng));
  std::vector<HistoricalTuple> pos;
  for (int i = 0; i < 16; ++i) pos.push_back(PosTuple(rng));
  for (size_t i = 0; i < states; ++i) {
    acct[rng.Uniform(acct.size())] = AcctTuple(rng);
    pos[rng.Uniform(pos.size())] = PosTuple(rng);
    in.preload.push_back(
        ModifySnapshotCmd{kAcct, *SnapshotState::Make(AcctSchema(), acct)});
    in.preload.push_back(
        ModifyHistoricalCmd{kPos, *HistoricalState::Make(PosSchema(), pos)});
  }
}

Op UpdateOp(Rng& rng) {
  Op op;
  const uint64_t pick = rng.Uniform(100);
  const int64_t id = rng.UniformInt(0, kIds - 1);
  if (pick < 22) {
    op.kind = OpKind::kQuelAppend;
    op.relation = kAcct;
    op.text = "append to acct (id = " + std::to_string(id) + ", owner = \"" +
              Str("o", rng.UniformInt(0, kOwners - 1)) +
              "\", bal = " + std::to_string(rng.UniformInt(0, 999)) + ")";
  } else if (pick < 42) {
    op.kind = OpKind::kQuelReplace;
    op.relation = kAcct;
    op.text = "replace acct set bal = bal + " +
              std::to_string(rng.UniformInt(1, 50)) +
              " where id = " + std::to_string(id);
  } else if (pick < 62) {
    op.kind = OpKind::kQuelDelete;
    op.relation = kAcct;
    op.text = "delete acct where id = " + std::to_string(id);
  } else if (pick < 70) {
    op.kind = OpKind::kQuelSnapshot;
    op.relation = kCfg;
    op.text = "replace cfg set v = v + " +
              std::to_string(rng.UniformInt(1, 9)) + " where k = \"" +
              Str("k", rng.UniformInt(0, kCfgKeys - 1)) + "\"";
  } else if (pick < 92) {
    // Retroactive valid-time correction: the fact (id, title) held over
    // [a, b) according to the old record; it is corrected to [a, c).
    op.kind = OpKind::kCorrectValid;
    op.relation = kPos;
    const std::string fact = "(" + std::to_string(id) + ", \"" +
                             Str("t", rng.UniformInt(0, kTitles - 1)) + "\")";
    auto [a, b] = Span(rng);
    const Chronon c = rng.UniformInt(a + 1, kHorizon);
    op.text = "modify_state(pos, (hrho(pos, inf) minus (id: int, title: "
              "string) {" + fact + " @ " + Interval(a, b) +
              "}) union (id: int, title: string) {" + fact + " @ " +
              Interval(a, c) + "})";
  } else {
    op.kind = OpKind::kHistoricalEdit;
    op.relation = kHist;
    auto [a, b] = Span(rng);
    op.text = std::string("modify_state(hist, hrho(hist, inf) ") +
              (rng.Bernoulli(0.5) ? "union" : "minus") +
              " (id: int, dept: string) {(" + std::to_string(id) + ", \"" +
              Str("d", rng.UniformInt(0, 3)) + "\") @ " + Interval(a, b) +
              "})";
  }
  return op;
}

/// One query over `snap` (rollback) and `temporal` at transaction numbers
/// drawn from [first, last]. `hot` draws N among the last 8 transactions,
/// which fits in every FINDSTATE and probe cache.
Op QueryOp(Rng& rng, OpKind kind, const std::string& snap,
           const std::string& temporal, TransactionNumber first,
           TransactionNumber last, bool hot) {
  auto draw = [&] {
    if (hot) return last - rng.Uniform(std::min<uint64_t>(8, last - first + 1));
    return first + rng.Uniform(last - first + 1);
  };
  Op op;
  op.kind = kind;
  op.n1 = draw();
  switch (kind) {
    case OpKind::kQuelAsOf:
      op.relation = snap;
      op.x = rng.UniformInt(0, 999);
      op.text = "retrieve " + snap + " as of " + std::to_string(op.n1) +
                " where bal > " + std::to_string(op.x);
      break;
    case OpKind::kSessionRho:
    case OpKind::kProbeRho:
      op.relation = snap;
      break;
    case OpKind::kSessionHrho:
    case OpKind::kProbeHrho:
      op.relation = temporal;
      break;
    case OpKind::kSliceAsOf: {
      op.relation = temporal;
      auto [a, b] = Span(rng);
      op.a = a;
      op.b = b;
      op.text = "show(delta[overlaps(valid, " + Interval(a, b) +
                "); valid intersect " + Interval(a, b) + "](hrho(" +
                temporal + ", " + std::to_string(op.n1) + ")))";
      break;
    }
    case OpKind::kBetween:
      op.relation = snap;
      op.n2 = draw();
      op.text = "show(rho(" + snap + ", " + std::to_string(op.n1) +
                ") minus rho(" + snap + ", " + std::to_string(op.n2) + "))";
      break;
    case OpKind::kSequencedJoin:
      op.relation = temporal;
      op.text = "show(hrho(" + temporal + ", " + std::to_string(op.n1) +
                ") join hrho(hist, inf))";
      break;
    default:
      break;
  }
  return op;
}

/// The asof_query mix: cold N (uniform over the whole history, far beyond
/// the FINDSTATE caches) dominates; a share of hot N fits in cache. Direct
/// compact-segment probes run in the read-back only: each reads a whole
/// segment file, and at 2% of the mix they would set the p99 on their own.
Op AsofOp(Rng& rng, TransactionNumber first, TransactionNumber last) {
  const uint64_t pick = rng.Uniform(100);
  OpKind kind = OpKind::kSequencedJoin;
  bool hot = false;
  if (pick < 32) {
    kind = OpKind::kQuelAsOf;
  } else if (pick < 44) {
    kind = OpKind::kQuelAsOf;
    hot = true;
  } else if (pick < 56) {
    kind = OpKind::kSessionRho;
  } else if (pick < 68) {
    kind = OpKind::kSessionHrho;
  } else if (pick < 80) {
    kind = OpKind::kSliceAsOf;
  } else if (pick < 92) {
    kind = OpKind::kBetween;
  }
  return QueryOp(rng, kind, kAcct, kPos, first, last, hot);
}

std::string IngestName(bool temporal, size_t i) {
  return (temporal ? "t" : "r") + std::to_string(i);
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "txn_long_history") {
    *out = Workload::kTxnLongHistory;
  } else if (name == "ingest_pipelined") {
    *out = Workload::kIngestPipelined;
  } else if (name == "asof_query") {
    *out = Workload::kAsofQuery;
  } else {
    return false;
  }
  return true;
}

Sizes SizesFor(Workload workload, int seconds) {
  const size_t s = static_cast<size_t>(seconds);
  Sizes sizes;
  sizes.readback = 64;
  switch (workload) {
    case Workload::kTxnLongHistory:
      sizes.preload_states = 20000;
      sizes.txn_ops = 120 * s;
      break;
    case Workload::kAsofQuery:
      sizes.preload_states = 20000;
      sizes.queries = 10000 * s;
      sizes.warmup_queries = 2000;
      break;
    case Workload::kIngestPipelined:
      sizes.ingest_relations = 8;
      sizes.ingest_sentences = 2000 * s;
      sizes.ingest_window = 64;
      break;
  }
  return sizes;
}

bool IsUpdate(OpKind kind) { return kind <= OpKind::kConstModify; }

bool IsQuel(OpKind kind) {
  return kind <= OpKind::kQuelSnapshot || kind == OpKind::kQuelAsOf;
}

Inputs Generate(Workload workload, uint64_t seed, int seconds) {
  Inputs in;
  in.sizes = SizesFor(workload, seconds);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(workload));
  if (workload == Workload::kIngestPipelined) {
    // Fresh history-bearing relations, then constant-state sentences in a
    // fixed round-robin submission order.
    for (size_t i = 0; i < in.sizes.ingest_relations; ++i) {
      in.preload.push_back(DefineRelationCmd{
          IngestName(false, i), RelationType::kRollback, AcctSchema()});
      in.preload.push_back(DefineRelationCmd{
          IngestName(true, i), RelationType::kTemporal, PosSchema()});
    }
    for (size_t i = 0; i < in.sizes.ingest_sentences; ++i) {
      const size_t rel = i % (2 * in.sizes.ingest_relations);
      const bool temporal = rel % 2 == 1;
      Op op;
      op.kind = OpKind::kConstModify;
      op.relation = IngestName(temporal, rel / 2);
      std::string tuples;
      for (int t = 0; t < 8; ++t) {
        if (t > 0) tuples += ", ";
        if (temporal) {
          HistoricalTuple h = PosTuple(rng);
          tuples += "(" + h.tuple.at(0).ToString() + ", \"" +
                    h.tuple.at(1).AsString() + "\") @ " +
                    Interval(h.valid.Min(), h.valid.Max());
        } else {
          Tuple a = AcctTuple(rng);
          tuples += "(" + a.at(0).ToString() + ", \"" + a.at(1).AsString() +
                    "\", " + a.at(2).ToString() + ")";
        }
      }
      op.text = "modify_state(" + op.relation + ", " +
                (temporal ? "(id: int, title: string) {"
                          : "(id: int, owner: string, bal: int) {") +
                tuples + "})";
      in.ops.push_back(std::move(op));
    }
  } else {
    GeneratePreload(rng, in.sizes.preload_states, in);
  }
  in.preload_txn = in.preload.size();

  if (workload == Workload::kTxnLongHistory) {
    for (size_t i = 0; i < in.sizes.txn_ops; ++i) in.ops.push_back(UpdateOp(rng));
  } else if (workload == Workload::kAsofQuery) {
    // N ≥ the first acct state, so every answer is a real past state.
    const TransactionNumber first = 7;
    for (size_t i = 0; i < in.sizes.warmup_queries; ++i) {
      in.warmup.push_back(AsofOp(rng, first, in.preload_txn));
    }
    for (size_t i = 0; i < in.sizes.queries; ++i) {
      in.ops.push_back(AsofOp(rng, first, in.preload_txn));
    }
  }

  Fnv fnv;
  std::string encoded;
  for (const Command& command : in.preload) EncodeCommand(command, encoded);
  fnv.Add(encoded);
  for (const Op& op : in.warmup) DigestOp(fnv, op);
  for (const Op& op : in.ops) DigestOp(fnv, op);
  in.input_digest = fnv.h;
  return in;
}

std::vector<Op> ReadbackOps(Workload workload, uint64_t seed, size_t count,
                            size_t ingest_relations, TransactionNumber first,
                            TransactionNumber last) {
  Rng rng(seed ^ 0x5EEDB0A7ull);
  const bool ingest = workload == Workload::kIngestPipelined;
  const OpKind kinds[] = {OpKind::kQuelAsOf,    OpKind::kSessionRho,
                          OpKind::kSessionHrho, OpKind::kProbeRho,
                          OpKind::kProbeHrho,   OpKind::kSliceAsOf,
                          OpKind::kBetween,     OpKind::kSequencedJoin};
  std::vector<Op> ops;
  for (size_t i = 0; i < count; ++i) {
    std::string snap = kAcct;
    std::string temporal = kPos;
    if (ingest) {
      const size_t rel = rng.Uniform(ingest_relations);
      snap = IngestName(false, rel);
      temporal = IngestName(true, rel);
    }
    const size_t n_kinds = ingest ? 7 : 8;  // ingest has no `hist` to join
    ops.push_back(QueryOp(rng, kinds[i % n_kinds], snap, temporal, first,
                          last, i % 4 == 3));
  }
  return ops;
}

uint64_t Digest(std::string_view bytes) {
  Fnv fnv;
  fnv.Add(bytes);
  return fnv.h;
}

uint64_t AnswerHash(const SnapshotState& state) {
  std::string bytes;
  EncodeSnapshotState(state, bytes);
  return Digest(bytes);
}

uint64_t AnswerHash(const HistoricalState& state) {
  std::string bytes;
  EncodeHistoricalState(state, bytes);
  return Digest(bytes);
}

Result<uint64_t> OracleAnswer(const Op& op, const Database& db) {
  switch (op.kind) {
    case OpKind::kQuelAsOf: {
      TTRA_ASSIGN_OR_RETURN(SnapshotState state, db.Rollback(op.relation, op.n1));
      TTRA_ASSIGN_OR_RETURN(
          SnapshotState kept,
          snapshot_ops::Select(state, Predicate::AttrCompare(
                                          "bal", CompareOp::kGt,
                                          Value::Int(op.x))));
      return AnswerHash(kept);
    }
    case OpKind::kSessionRho:
    case OpKind::kProbeRho: {
      TTRA_ASSIGN_OR_RETURN(SnapshotState state, db.Rollback(op.relation, op.n1));
      return AnswerHash(state);
    }
    case OpKind::kSessionHrho:
    case OpKind::kProbeHrho: {
      TTRA_ASSIGN_OR_RETURN(HistoricalState state,
                            db.RollbackHistorical(op.relation, op.n1));
      return AnswerHash(state);
    }
    case OpKind::kSliceAsOf: {
      TTRA_ASSIGN_OR_RETURN(HistoricalState state,
                            db.RollbackHistorical(op.relation, op.n1));
      const TemporalExpr window =
          TemporalExpr::Const(TemporalElement::Span(op.a, op.b));
      TTRA_ASSIGN_OR_RETURN(
          HistoricalState sliced,
          historical_ops::Delta(
              state, TemporalPred::Overlaps(TemporalExpr::Valid(), window),
              TemporalExpr::Intersect(TemporalExpr::Valid(), window)));
      return AnswerHash(sliced);
    }
    case OpKind::kBetween: {
      TTRA_ASSIGN_OR_RETURN(SnapshotState lhs, db.Rollback(op.relation, op.n1));
      TTRA_ASSIGN_OR_RETURN(SnapshotState rhs, db.Rollback(op.relation, op.n2));
      TTRA_ASSIGN_OR_RETURN(SnapshotState diff,
                            snapshot_ops::Difference(lhs, rhs));
      return AnswerHash(diff);
    }
    case OpKind::kSequencedJoin: {
      TTRA_ASSIGN_OR_RETURN(HistoricalState lhs,
                            db.RollbackHistorical(op.relation, op.n1));
      TTRA_ASSIGN_OR_RETURN(HistoricalState rhs, db.RollbackHistorical(kHist));
      TTRA_ASSIGN_OR_RETURN(HistoricalState joined,
                            historical_ops::NaturalJoin(lhs, rhs));
      return AnswerHash(joined);
    }
    default:
      return InvalidArgumentError("not a query op");
  }
}

Result<uint64_t> OracleCurrent(const Op& op, const Database& db) {
  const Relation* rel = db.Find(op.relation);
  if (rel == nullptr) return UnknownIdentifierError(op.relation);
  if (rel->type() == RelationType::kRollback ||
      rel->type() == RelationType::kSnapshot) {
    TTRA_ASSIGN_OR_RETURN(SnapshotState state, db.Rollback(op.relation));
    return AnswerHash(state);
  }
  TTRA_ASSIGN_OR_RETURN(HistoricalState state,
                        db.RollbackHistorical(op.relation));
  return AnswerHash(state);
}

}  // namespace e2e
