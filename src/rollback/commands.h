#ifndef TTRA_ROLLBACK_COMMANDS_H_
#define TTRA_ROLLBACK_COMMANDS_H_

#include <string>
#include <variant>
#include <vector>

#include "rollback/database.h"
#include "storage/serialize.h"

namespace ttra {

/// Plain-data command forms mirroring the paper's COMMAND syntactic domain
/// with expressions already evaluated to constant states. Used by the
/// workload generators and the state-log equivalence suites; the full
/// language (with algebraic expressions inside modify_state) lives in
/// src/lang.

struct DefineRelationCmd {
  std::string name;
  RelationType type;
  Schema schema;
};

struct ModifySnapshotCmd {
  std::string name;
  SnapshotState state;
};

struct ModifyHistoricalCmd {
  std::string name;
  HistoricalState state;
};

struct DeleteRelationCmd {
  std::string name;
};

struct ModifySchemaCmd {
  std::string name;
  Schema schema;
};

using Command = std::variant<DefineRelationCmd, ModifySnapshotCmd,
                             ModifyHistoricalCmd, DeleteRelationCmd,
                             ModifySchemaCmd>;

/// Applies one command; on error the database is unchanged (the paper's
/// `else d` branches).
Status ApplyCommand(Database& db, const Command& command);

/// The paper's sequencing C⟦C1, C2⟧: each command runs against the result
/// of the previous one; a failing command leaves the database unchanged
/// and evaluation *continues* (faithful to the denotations, which have no
/// error exit). Returns the first error encountered, if any.
Status ApplySentence(Database& db, const std::vector<Command>& sentence);

/// P⟦·⟧: evaluates the sentence against the EMPTY database.
Result<Database> EvalSentence(const std::vector<Command>& sentence,
                              DatabaseOptions options = {});

/// Binary codec for commands (the unit the write-ahead log stores): a
/// one-byte variant tag followed by the serialize.h encoding of the
/// fields. Decoding validates tags and returns kCorruption on malformed
/// input.
void EncodeCommand(const Command& command, std::string& out);
Result<Command> DecodeCommand(ByteReader& reader);

}  // namespace ttra

#endif  // TTRA_ROLLBACK_COMMANDS_H_
