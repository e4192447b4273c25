#ifndef TTRA_ROLLBACK_DATABASE_H_
#define TTRA_ROLLBACK_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rollback/relation.h"

namespace ttra {

/// Database configuration. Inert: every relation keeps its history in the
/// one full-copy StateLog, so nothing reads `storage`; the field stays only
/// so existing callers that set it still compile.
struct DatabaseOptions {
  StorageKind storage = StorageKind::kFullCopy;
};

/// The paper's DATABASE semantic domain: a database state (identifier →
/// relation ∪ {⊥}) paired with the transaction number of the most recent
/// change. A Database is a persistent value: copying one is O(#relations)
/// pointer copies, because relations are shared between copies and a
/// relation is copied only when a command writes to it — and that copy
/// shares the relation's recorded history (StateLog is persistent too). So
/// "C⟦·⟧ returns a new database" is realized as: copy, then run the
/// command on the copy, at O(change) cost; the mutating methods below run
/// the command on this version and never disturb another copy. Dropping a
/// version (an aborted atomic sentence, a superseded snapshot) releases
/// only what no other version shares.
///
/// Faithful to the paper: a failed command leaves the database — including
/// its transaction number — completely unchanged, and define_relation on a
/// bound identifier / modify_state on an unbound one are failures (the
/// paper's `else d` branches, surfaced as errors so callers can tell).
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  /// The paper's transaction counter n (0 in the EMPTY database).
  TransactionNumber transaction_number() const { return txn_; }

  // --- Commands (C⟦·⟧) --------------------------------------------------

  /// C⟦define_relation(I, Y)⟧ with a declared scheme: binds I to an empty
  /// relation of the given type and increments the transaction number.
  /// Fails (kAlreadyDefined) if I is already bound.
  Status DefineRelation(const std::string& name, RelationType type,
                        Schema schema);

  /// C⟦modify_state(I, E)⟧ with E already evaluated to a state: replaces
  /// (snapshot/historical) or appends (rollback/temporal) the state with
  /// transaction number n+1, then sets n := n+1.
  Status ModifyState(const std::string& name, const SnapshotState& state);
  Status ModifyState(const std::string& name, const HistoricalState& state);

  /// Extension (companion TR): removes the binding of I. The transaction
  /// number is incremented; the identifier may later be redefined.
  Status DeleteRelation(const std::string& name);

  /// Extension (scheme evolution): installs a new scheme for I effective
  /// at transaction n+1 and increments the transaction number. Past states
  /// keep their recorded schemes.
  Status ModifySchema(const std::string& name, Schema schema);

  // --- The rollback operators ρ and ρ̂ ------------------------------------

  /// E⟦ρ(I, N)⟧: the snapshot state of I current at transaction `txn`;
  /// nullopt means N = ∞ (the most recent state). Enforces the paper's
  /// typing rules: finite N requires a rollback relation; ∞ also allows
  /// snapshot relations.
  Result<SnapshotState> Rollback(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  /// E⟦ρ̂(I, N)⟧: historical counterpart (temporal relations for finite N;
  /// ∞ also allows historical relations).
  Result<HistoricalState> RollbackHistorical(
      const std::string& name,
      std::optional<TransactionNumber> txn = std::nullopt) const;

  // --- Introspection -----------------------------------------------------

  /// The relation bound to `name`, or nullptr (the paper's ⊥).
  const Relation* Find(const std::string& name) const;

  /// The relation bound to `name` as a shared handle, or nullptr. The
  /// handle pins this version of the relation: later commands on the
  /// database copy it before writing instead of changing what it shows.
  std::shared_ptr<const Relation> FindShared(const std::string& name) const;

  /// Bound identifiers in sorted order.
  std::vector<std::string> RelationNames() const;

  /// Every binding, in name order: for readers of the whole database that
  /// would otherwise look each name up again.
  const std::map<std::string, std::shared_ptr<const Relation>>& relations()
      const {
    return relations_;
  }

  size_t ApproxBytes() const;

  // --- Restore API (persistence layer only) -------------------------------
  //
  // These bypass the command semantics to rebuild a database exactly as
  // serialized — transaction numbers included. Normal code must go
  // through DefineRelation/ModifyState.

  /// Installs a fully-built relation under `name` as a fresh (unshared)
  /// relation, replacing any binding.
  void RestoreRelation(const std::string& name, Relation relation);

  /// Forces the database's transaction counter.
  void RestoreTransactionNumber(TransactionNumber txn) { txn_ = txn; }

 private:
  /// Copy-on-write: the relation in `slot`, made private to this version
  /// first if another version still shares it.
  static Relation& Own(std::shared_ptr<const Relation>& slot);

  TransactionNumber txn_ = 0;
  // Every relation is allocated non-const (Own writes through the pointer
  // when this version is its only owner) and never written while shared.
  std::map<std::string, std::shared_ptr<const Relation>> relations_;
};

}  // namespace ttra

#endif  // TTRA_ROLLBACK_DATABASE_H_
