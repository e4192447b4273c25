#ifndef TTRA_LANG_ABSINT_H_
#define TTRA_LANG_ABSINT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/analyzer.h"
#include "lang/ast.h"

namespace ttra::lang {

// --- Abstract interpreter over the paper's command semantics ---------------
//
// The denotation C⟦·⟧ of every command is statically predictable up to the
// values stored in states: commands either fail (leaving the database — and
// the transaction counter — unchanged) or commit exactly one transaction,
// and transaction numbers in a relation's state sequence are strictly
// increasing. The interpreter below exploits this: it walks a program once
// and tracks, per relation identifier, an abstract state — relation type,
// current scheme, scheme-version history, and the set of transaction
// numbers at which states were recorded — plus an interval abstraction of
// the transaction counter itself.
//
// Soundness (DESIGN.md §10): facts are sound for strict execution from the
// given initial state. "Provably" below always means "in every strict
// execution reaching this statement". Statements the static analyzer found
// an error in are treated as may-skip (they commit nothing under --lax),
// which widens the counter interval instead of invalidating it.

/// Closed interval [lo, hi] of transaction numbers; unset hi = unbounded.
/// The lattice join is interval hull; bottom is not representable (an
/// AbsRelation/AbsState simply omits facts it cannot bound).
struct TxnInterval {
  TransactionNumber lo = 0;
  std::optional<TransactionNumber> hi = 0;

  static TxnInterval Exact(TransactionNumber t) { return {t, t}; }
  static TxnInterval Range(TransactionNumber lo, TransactionNumber hi) {
    return {lo, hi};
  }
  static TxnInterval AtLeast(TransactionNumber lo) { return {lo, std::nullopt}; }

  bool exact() const { return hi.has_value() && *hi == lo; }

  /// Interval hull (lattice join).
  TxnInterval Join(const TxnInterval& other) const;

  /// The interval shifted by [a, b]: commit-counter transfer for a
  /// statement that commits between a and b transactions.
  TxnInterval Plus(TransactionNumber a, TransactionNumber b) const;

  /// Every element of this interval is < t (resp. >, <=, >=).
  bool ProvablyLt(TransactionNumber t) const { return hi.has_value() && *hi < t; }
  bool ProvablyGt(TransactionNumber t) const { return lo > t; }
  bool ProvablyLe(TransactionNumber t) const { return hi.has_value() && *hi <= t; }
  bool ProvablyGe(TransactionNumber t) const { return lo >= t; }

  std::string ToString() const;  // "[3,7]", "[3,∞)", "3" when exact

  friend bool operator==(const TxnInterval&, const TxnInterval&) = default;
};

/// Abstract value of one relation identifier.
struct AbsRelation {
  RelationType type = RelationType::kSnapshot;
  /// Scheme current at the program point (mirrors Catalog::Entry::schema).
  Schema schema;
  /// Commit transaction of the define_relation that created the binding.
  TxnInterval defined_at;
  /// Scheme versions in increasing transaction order, each with the
  /// interval of its installation transaction. Index 0 is the define-time
  /// scheme (mirrors Relation::schema_history()).
  std::vector<std::pair<Schema, TxnInterval>> schema_history;
  /// States recorded before the program point's own commits, when the
  /// facts were seeded from a live Database: a handle to that relation,
  /// whose state transactions are exact and strictly increasing. Sharing
  /// it keeps seeding O(#relations) — the facts read the relation's log by
  /// binary search instead of copying its history. nullptr otherwise.
  std::shared_ptr<const Relation> recorded;
  /// Commit transactions of the states the program appended after
  /// `recorded`'s, in increasing order. Snapshot/historical relations
  /// replace their single state, so at most one state in all; rollback/
  /// temporal relations append.
  std::vector<TxnInterval> state_txns;
  /// True when `recorded` and state_txns list every state the relation has
  /// recorded — i.e. the relation's whole life is visible to the
  /// interpreter (created by the program, or seeded from a live Database).
  /// False for relations that pre-exist in a Catalog, whose history is
  /// unknown.
  bool states_complete = false;

  /// Number of recorded states: `recorded`'s, then state_txns.
  size_t StateCount() const;
  /// Commit transaction of the i-th recorded state (0-based).
  TxnInterval StateTxnAt(size_t i) const;
  /// Commit transaction of the most recent state; nullopt when none.
  std::optional<TxnInterval> LastStateTxn() const;

  /// The scheme FINDSTATE-style lookups observe at transaction `txn`, when
  /// provably resolvable from the abstract scheme history (clamps to the
  /// define-time scheme for txn before every installation, mirroring
  /// Relation::SchemaAt). nullptr when the interval abstraction cannot
  /// pin down which version applies.
  const Schema* ProvableSchemaAt(TransactionNumber txn) const;

  /// True when ρ/ρ̂ at `txn` provably observes the empty state: the whole
  /// state history is visible and contains no state at or before `txn`.
  bool ProvablyEmptyAt(TransactionNumber txn) const;

  /// The scheme of the *state* a ρ/ρ̂ probe at `txn` (nullopt = ∞) observes
  /// — i.e. the scheme FINDSTATE's answer was recorded under, which is what
  /// the runtime result carries. Differs from ProvableSchemaAt when the
  /// probe lands between a state and a later modify_schema. nullptr when
  /// not provable (incomplete history or imprecise intervals).
  const Schema* ProvableObservedSchemaAt(
      std::optional<TransactionNumber> txn) const;
};

/// Abstract database state at one program point.
struct AbsState {
  /// Transaction counter before the statement at this point runs.
  TxnInterval counter;
  std::map<std::string, AbsRelation> relations;

  const AbsRelation* Find(const std::string& name) const;
};

/// Abstract state for a program checked against `catalog` with nothing
/// known beyond it. Pre-existing relations get unknown (wide) histories;
/// the counter is exact when `initial_txn` is known, [0, ∞) otherwise.
AbsState InitialAbsState(const Catalog& catalog,
                         std::optional<TransactionNumber> initial_txn);

/// Exact abstract state of a live database: every relation's recorded
/// states (shared with the database through AbsRelation::recorded, in
/// O(#relations)) and scheme history become exact facts and
/// states_complete is set, so downstream consumers (the optimizer) get
/// maximal precision.
AbsState AbsStateFromDatabase(const Database& db);

/// Runs the abstract semantics over the program. Returns one AbsState per
/// program point: element i is the state before statement i, element
/// program.size() is the final state. `stmt_has_error` (parallel to the
/// program; may be nullptr = all clean) marks statements the static
/// analyzer rejected: a failing command commits nothing — the database and
/// counter are unchanged — so such statements apply no abstract effect.
std::vector<AbsState> Interpret(const Program& program, AbsState initial,
                                const std::vector<bool>* stmt_has_error);

/// The whole-program warnings TTRA-W006..W009, derived from the
/// interpreter's facts:
///   W006 — ρ/ρ̂ with a finite transaction number provably at or before
///          which the relation has recorded no state (e.g. before the
///          relation was defined): the result is provably empty.
///   W007 — ρ/ρ̂ whose transaction number provably resolves to a scheme
///          version older than the current one; the surrounding operators
///          are typed against the current scheme, so this use is
///          schema-incompatible across commands.
///   W008 — modify_state of a snapshot/historical relation whose state is
///          provably overwritten (or deleted) before any expression reads
///          it: the write is dead.
///   W009 — a non-constant modify_state/show expression that references no
///          relation: its value is a compile-time constant (the optimizer
///          folds it; see OptimizeWithFacts).
/// `states` must come from Interpret over the same program/error mask.
void CheckProgramAbsint(const Program& program,
                        const std::vector<AbsState>& states,
                        const std::vector<bool>& stmt_has_error,
                        DiagnosticSink& sink);

}  // namespace ttra::lang

#endif  // TTRA_LANG_ABSINT_H_
