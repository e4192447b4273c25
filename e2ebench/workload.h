// Input generation for the end-to-end benchmark. Everything here is a pure
// function of (workload, seed, seconds): the system-under-test process and
// the oracle process call it independently and must see identical inputs.

#ifndef TTRA_E2EBENCH_WORKLOAD_H_
#define TTRA_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rollback/commands.h"
#include "rollback/database.h"

namespace e2e {

using ttra::Chronon;
using ttra::TransactionNumber;

enum class Workload { kTxnLongHistory, kIngestPipelined, kAsofQuery };

/// Parses a --workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);

/// Work done by one round of a run. Counts are fixed per (workload,
/// --seconds) and never depend on elapsed time, so history length — and
/// with it the O(history) commit cost — is identical in every run.
struct Sizes {
  size_t preload_states = 0;  ///< states per history-bearing relation
  size_t txn_ops = 0;         ///< txn_long_history: synchronous updates
  size_t ingest_sentences = 0;
  size_t ingest_relations = 0;
  size_t ingest_window = 0;   ///< sentences in flight (≤ 64)
  size_t queries = 0;         ///< asof_query: read-only queries
  size_t warmup_queries = 0;  ///< asof_query: untimed, before the loop
  size_t readback = 0;        ///< verification reads after every workload
};
Sizes SizesFor(Workload workload, int seconds);

/// What one operation does; the oracle recomputes each answer from the
/// kind and parameters alone, without the script path.
enum class OpKind : uint8_t {
  // Updates (txn_long_history): read ρ(R, ∞), then commit one sentence.
  kQuelAppend,       ///< append to acct (...)
  kQuelReplace,      ///< replace acct set bal = bal + d where id = k
  kQuelDelete,       ///< delete acct where id = k
  kQuelSnapshot,     ///< replace cfg set v = v + d where k = "kN"
  kCorrectValid,     ///< modify_state(pos, ρ̂ − fact@old ∪ fact@new)
  kHistoricalEdit,   ///< modify_state(hist, ρ̂(hist, ∞) ∪/− fact@span)
  // Ingest: a constant-state modify_state sentence.
  kConstModify,
  // Queries (asof_query and read-back).
  kQuelAsOf,         ///< retrieve acct as of n1 where bal > x
  kSessionRho,       ///< Session::Rollback(acct, n1)
  kSessionHrho,      ///< Session::RollbackHistorical(pos, n1)
  kProbeRho,         ///< CompactStore::ProbeSnapshot(acct, n1)
  kProbeHrho,        ///< CompactStore::ProbeHistorical(pos, n1)
  kSliceAsOf,        ///< show(delta[overlaps(valid, [a,b)); ...](hrho(pos, n1)))
  kBetween,          ///< show(rho(acct, n1) minus rho(acct, n2))
  kSequencedJoin,    ///< show(hrho(pos, n1) join hrho(hist, inf))
};

bool IsUpdate(OpKind kind);
bool IsQuel(OpKind kind);

struct Op {
  OpKind kind = OpKind::kQuelAsOf;
  std::string relation;  ///< relation the op reads first / targets
  std::string text;      ///< script text (Quel or TTRA); empty for calls
  TransactionNumber n1 = 0;
  TransactionNumber n2 = 0;
  int64_t x = 0;
  Chronon a = 0;
  Chronon b = 0;
};

/// Generated inputs of one run.
struct Inputs {
  Sizes sizes;
  /// Commands the setup submits before the timed phase (definitions and
  /// the constant-state preload history).
  std::vector<ttra::Command> preload;
  /// Transaction number after the preload.
  TransactionNumber preload_txn = 0;
  std::vector<Op> ops;       ///< the timed phase
  std::vector<Op> warmup;    ///< asof_query only
  /// A fixed digest of every generated input, printed so a changed seed
  /// visibly changes the inputs.
  uint64_t input_digest = 0;
};

Inputs Generate(Workload workload, uint64_t seed, int seconds);

/// Read-back ops over the final database (every workload): each read path
/// at `count` transaction numbers spread over [first, last].
std::vector<Op> ReadbackOps(Workload workload, uint64_t seed, size_t count,
                            size_t ingest_relations, TransactionNumber first,
                            TransactionNumber last);

/// FNV-1a, the digest of every generated input and answer.
uint64_t Digest(std::string_view bytes);

/// FNV-1a over the canonical encoding of a query answer.
uint64_t AnswerHash(const ttra::SnapshotState& state);
uint64_t AnswerHash(const ttra::HistoricalState& state);

/// Answer of a query op computed directly from Database lookups and the
/// operator kernels — no parser, analyzer, optimizer or evaluator.
ttra::Result<uint64_t> OracleAnswer(const Op& op, const ttra::Database& db);

/// ρ(R, ∞) of an update op's target, by direct lookup.
ttra::Result<uint64_t> OracleCurrent(const Op& op, const ttra::Database& db);

}  // namespace e2e

#endif  // TTRA_E2EBENCH_WORKLOAD_H_
