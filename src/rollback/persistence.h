#ifndef TTRA_ROLLBACK_PERSISTENCE_H_
#define TTRA_ROLLBACK_PERSISTENCE_H_

#include <string>

#include "rollback/database.h"
#include "storage/env.h"

namespace ttra {

/// Whole-database persistence: every relation's type, scheme history, and
/// complete logical state sequence, plus the database's transaction
/// counter, in one checksummed frame. The in-memory representation is
/// *not* part of the format (the paper's point that the semantics defines
/// the information content, and an implementation merely realizes it).

/// Serializes the database to bytes.
std::string EncodeDatabase(const Database& db);

/// Rebuilds a database from EncodeDatabase output (`options` is inert;
/// see DatabaseOptions). Any corruption (bad magic, checksum, truncation,
/// invalid payload) yields kCorruption.
Result<Database> DecodeDatabase(std::string_view data,
                                DatabaseOptions options = {});

/// Writes EncodeDatabase output to a file, crash-safely: the bytes go to
/// `path + ".tmp"`, are synced, and the temp file is atomically renamed
/// over `path` with the rename itself made durable (directory fsync). A
/// crash at any point leaves either the old file or the new one, never a
/// mix or a disappearing file.
Status SaveDatabase(const Database& db, const std::string& path,
                    Env* env = Env::Default());

/// Reads and decodes a database file.
Result<Database> LoadDatabase(const std::string& path,
                              DatabaseOptions options = {},
                              Env* env = Env::Default());

}  // namespace ttra

#endif  // TTRA_ROLLBACK_PERSISTENCE_H_
