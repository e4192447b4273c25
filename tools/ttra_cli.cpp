// ttra — command-line driver for the transaction-time algebraic language.
//
//   ttra run <script> [--db <file>] [--save <file>] [--lax] [--optimize]
//                     [--explain] [--wal-dir <dir>] [--fresh] [--recover]
//                     [--group-commit] [--sessions <n>] [--batch <k>]
//                     [--shards <n>]
//   ttra check <script> [--json] [--werror] [--help]
//   ttra describe --db <file>
//   ttra vacuum --db <file> --relation <name> --before <txn>
//               [--archive <file>] [--save <file>]
//   ttra vacuum --wal-dir <dir>
//   ttra recover --wal-dir <dir> [--save <file>]
//   ttra fsck --wal-dir <dir> [--json] [--repair]
//   ttra modelcheck [--scenario <name|all>] [--preemptions <n>]
//                   [--max-schedules <n>] [--max-steps <n>] [--seeded-bug]
//                   [--replay <decisions>]
//
// `check` runs the static diagnostics engine without executing anything:
// every error and warning in the script is reported with its source span
// and registry code (human-readable by default, machine-readable with
// --json). Exit codes: 0 clean (warnings allowed unless --werror), 1
// errors or warnings-under---werror, 2 usage / unreadable script. See
// `ttra check --help`.
//
// `run` executes a script of language statements against an empty database
// or one loaded with --db, printing every show() result; --save persists
// the resulting database. --optimize rewrites each expression with the
// algebraic optimizer before evaluation; --explain prints each statement's
// operator tree (after optimization, if enabled) without special casing.
//
// With --wal-dir, `run` executes durably through the sharded executor,
// with one shard unless --shards N says otherwise: state is recovered
// from the directory's checkpoint + write-ahead logs, and every update is
// logged and fsync'ed before it is acknowledged, so a crash mid-script
// loses nothing that was reported committed. Each update is acknowledged
// before the next statement is evaluated, and without --lax the first
// failing statement stops the script with nothing after it committed. The
// checkpoint is the compact layout (DESIGN.md §16): per-relation
// delta-encoded segment files chained by segments.manifest; a checkpoint
// truncates the shard WALs. A directory written by an earlier build's
// single-writer executor (one wal.log, perhaps a full-copy checkpoint.db)
// is a legacy layout: `fsck` scans it as it is, and the first open
// (`run`, `recover` or `vacuum`) migrates it to one shard. --fresh
// discards any previous state in the directory first; --recover prints a
// recovery report before running.
// `recover` just recovers, reports, and (with --save) exports a plain
// database file. It refuses mid-log corruption (intact records stranded
// beyond a damaged one) instead of silently replaying a hole; `fsck`
// inspects the checkpoint + WALs, and with --repair quarantines damaged
// bytes to <wal>.quarantine and truncates to the last valid prefix so
// recover succeeds. Both share a documented exit-code table (see
// `ttra fsck --help`): 0 clean, 1 torn-tail/repaired, 3 needs-repair,
// 4 unrecoverable, 2 usage.
//
// With --group-commit (or --sessions, --batch, --shards), updates are
// pipelined instead: they are enqueued to the writer threads and
// group-committed — one fsync per batch of up to --batch statements —
// while show statements drain the pipeline and are evaluated on
// --sessions concurrent reader sessions pinned at the same epoch, which
// must all agree. These flags require --wal-dir. With N > 1 shards,
// relations are routed to their home shard by name hash and cross-shard
// sentences two-phase through durable prepare markers, while one globally
// ordered transaction chain is kept. The directory remembers its shard
// count (MANIFEST).
//
// Flags are checked per command: an unknown flag, a missing value, or a
// count that is not a whole decimal number is a usage error (exit 2).
//
// `vacuum --wal-dir` compacts a durable directory online: it rewrites
// every segment chain to a single keyframe, collapses the manifest chain
// to one full record, and truncates the shard WALs, all without blocking
// pinned readers.
//
// `modelcheck` runs the deterministic schedule explorer (src/modelcheck)
// over the commit-protocol scenarios: every interleaving of the scaled-down
// executors within the preemption bound is executed and the protocol
// invariants checked on each. Exit 0 = every explored schedule clean; 1 =
// a violating schedule was found (its trace and a --replay decision string
// are printed); 2 = usage. With --seeded-bug the sharded scenario runs
// with a deliberately broken durability watermark and the exit codes
// invert: 0 = the bug was caught (expected), 1 = it escaped.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lang/analyzer.h"
#include "modelcheck/explore.h"
#include "modelcheck/scenarios.h"
#include "lang/check.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "optimizer/rewriter.h"
#include "rollback/persistence.h"
#include "rollback/sharded_executor.h"
#include "rollback/vacuum.h"
#include "storage/env.h"
#include "storage/salvage.h"

namespace {

using namespace ttra;

int Fail(const std::string& message) {
  std::cerr << "ttra: " << message << "\n";
  return 1;
}

// Usage errors exit 2, distinct from "the command ran and failed" (1) —
// the same split the fsck/recover exit codes document.
int UsageError(const std::string& message) {
  std::cerr << "ttra: " << message << "\n";
  return 2;
}

struct Flags {
  std::vector<std::string> positional;  // positional[0] is the command
  std::map<std::string, std::string> values;  // --key value
  bool lax = false;
  bool optimize = false;
  bool explain = false;
  bool group_commit = false;
  bool fresh = false;
  bool recover = false;
  bool json = false;
  bool werror = false;
  bool help = false;
  bool repair = false;
  bool seeded_bug = false;
};

/// The flags one subcommand accepts: switches set a Flags member and take
/// no value, the others take exactly one. Anything else is a usage error,
/// so a mistyped flag can never be silently ignored.
struct FlagSpec {
  std::map<std::string, bool Flags::*> switches;
  std::vector<std::string> valued;
};

const FlagSpec* FlagsOf(const std::string& command) {
  static const std::map<std::string, FlagSpec> kSpecs = {
      {"run",
       {{{"lax", &Flags::lax},
         {"optimize", &Flags::optimize},
         {"explain", &Flags::explain},
         {"fresh", &Flags::fresh},
         {"recover", &Flags::recover},
         {"group-commit", &Flags::group_commit}},
        {"db", "save", "wal-dir", "sessions", "batch", "shards"}}},
      {"check",
       {{{"json", &Flags::json},
         {"werror", &Flags::werror},
         {"help", &Flags::help}},
        {}}},
      {"describe", {{}, {"db"}}},
      {"vacuum",
       {{}, {"db", "relation", "before", "archive", "save", "wal-dir"}}},
      {"recover", {{}, {"wal-dir", "save"}}},
      {"fsck",
       {{{"json", &Flags::json},
         {"repair", &Flags::repair},
         {"help", &Flags::help}},
        {"wal-dir"}}},
      {"modelcheck",
       {{{"seeded-bug", &Flags::seeded_bug}},
        {"scenario", "preemptions", "max-schedules", "max-steps", "replay"}}},
  };
  auto it = kSpecs.find(command);
  return it == kSpecs.end() ? nullptr : &it->second;
}

/// Parses `ttra <command> [args...]` against the command's FlagSpec.
/// Returns an error message naming the offending argument, or "" on
/// success.
std::string ParseFlags(int argc, char** argv, Flags& flags) {
  if (argc < 2) return "missing command";
  const std::string command = argv[1];
  const FlagSpec* spec = FlagsOf(command);
  if (spec == nullptr) return "unknown command: " + command;
  flags.positional.push_back(command);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    if (auto it = spec->switches.find(name); it != spec->switches.end()) {
      flags.*(it->second) = true;
    } else if (std::find(spec->valued.begin(), spec->valued.end(), name) !=
               spec->valued.end()) {
      if (i + 1 >= argc) return "flag " + arg + " needs a value";
      flags.values[name] = argv[++i];
    } else {
      return "unknown flag " + arg + " for `ttra " + command + "`";
    }
  }
  return "";
}

/// A whole decimal number: digits only, no sign, no suffix, no overflow.
std::optional<uint64_t> ParseDecimal(const std::string& text) {
  if (text.empty() || text.size() > 19) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

/// Reads the count flag `--name` into `out` (left alone when the flag is
/// absent). Returns false unless the value is a whole decimal in
/// [min, max].
template <typename Count>
bool CountFlag(const Flags& flags, const std::string& name, uint64_t min,
               uint64_t max, Count& out) {
  auto it = flags.values.find(name);
  if (it == flags.values.end()) return true;
  std::optional<uint64_t> value = ParseDecimal(it->second);
  if (!value || *value < min || *value > max) return false;
  out = static_cast<Count>(*value);
  return true;
}

Result<Database> LoadOrEmpty(const Flags& flags) {
  auto it = flags.values.find("db");
  if (it == flags.values.end()) return Database();
  return LoadDatabase(it->second);
}

int SaveIfRequested(const Database& db, const Flags& flags) {
  auto it = flags.values.find("save");
  if (it == flags.values.end()) return 0;
  Status status = SaveDatabase(db, it->second);
  if (!status.ok()) return Fail("save failed: " + status.ToString());
  std::cout << "saved database to " << it->second << "\n";
  return 0;
}

/// Applies the optimizer to the expression inside a statement, leaving
/// non-expression statements untouched. The live database supplies exact
/// abstract facts (AbsStateFromDatabase), unlocking the facts-driven
/// rewrites (ρ-fold, ∅-pruning, constant folding) on top of the algebraic
/// ones — sound here because the statement evaluates against `db` itself.
lang::Stmt OptimizeStmt(const lang::Stmt& stmt, const lang::Catalog& catalog,
                        const Database& db) {
  const lang::AbsState facts = lang::AbsStateFromDatabase(db);
  if (std::holds_alternative<lang::ModifyStateStmt>(stmt)) {
    const auto& s = std::get<lang::ModifyStateStmt>(stmt);
    return lang::ModifyStateStmt{
        s.name, optimizer::OptimizeWithFacts(s.expr, catalog, facts)};
  }
  if (std::holds_alternative<lang::ShowStmt>(stmt)) {
    const auto& s = std::get<lang::ShowStmt>(stmt);
    return lang::ShowStmt{optimizer::OptimizeWithFacts(s.expr, catalog, facts)};
  }
  return stmt;
}

/// Translates a non-show language statement into the algebra's command
/// domain, evaluating any modify_state expression against `db`.
Result<Command> StmtToCommand(const lang::Stmt& stmt, const Database& db) {
  if (const auto* s = std::get_if<lang::DefineRelationStmt>(&stmt)) {
    return Command(DefineRelationCmd{s->name, s->type, s->schema});
  }
  if (const auto* s = std::get_if<lang::ModifyStateStmt>(&stmt)) {
    TTRA_ASSIGN_OR_RETURN(lang::StateValue value,
                          lang::EvalExpr(s->expr, db));
    if (auto* snapshot = std::get_if<SnapshotState>(&value)) {
      return Command(ModifySnapshotCmd{s->name, std::move(*snapshot)});
    }
    return Command(ModifyHistoricalCmd{
        s->name, std::get<HistoricalState>(std::move(value))});
  }
  if (const auto* s = std::get_if<lang::DeleteRelationStmt>(&stmt)) {
    return Command(DeleteRelationCmd{s->name});
  }
  if (const auto* s = std::get_if<lang::ModifySchemaStmt>(&stmt)) {
    return Command(ModifySchemaCmd{s->name, s->schema});
  }
  return InvalidArgumentError("show statements are not commands");
}

void ReportRecovery(TransactionNumber txn,
                    const ShardedExecutor::RecoveryInfo& info) {
  std::cout << "recovered transaction " << txn << " (checkpoint at "
            << info.checkpoint_txn << ", " << info.shards << " shard(s), "
            << info.replayed_batches << " batch(es) / "
            << info.replayed_sentences << " sentence(s) replayed";
  if (info.dropped_in_doubt > 0) {
    std::cout << ", " << info.dropped_in_doubt
              << " in-doubt batch(es) dropped";
  }
  if (info.torn_tails > 0) {
    std::cout << ", " << info.torn_tails << " torn tail(s) truncated";
  }
  if (info.migrated_legacy_wal) {
    std::cout << ", single-writer wal.log migrated";
  }
  std::cout << ")\n";
}

/// The statement loop of `run --wal-dir`. Returns 0 on success. Unless
/// `pipelined`, every update is settled before the next statement.
int RunProgram(ShardedExecutor& exec, const std::vector<lang::Stmt>& program,
               const Flags& flags, size_t sessions, bool pipelined) {
  // Statements in flight: resolved whenever the pipeline drains, so a
  // command error is reported near its statement, not at script end.
  std::vector<std::pair<std::string, std::future<Result<TransactionNumber>>>>
      inflight;
  auto settle = [&]() -> int {
    Status drained = exec.Drain();
    if (!drained.ok()) return Fail("pipeline drain: " + drained.ToString());
    for (auto& [text, future] : inflight) {
      Result<TransactionNumber> result = future.get();
      if (result.ok()) continue;
      if (!flags.lax || !exec.healthy()) {
        return Fail(result.status().ToString() + " [" + text + "]");
      }
      std::cerr << "ttra: " << result.status().ToString() << " [" << text
                << "] (continuing)\n";
    }
    inflight.clear();
    return 0;
  };

  for (const lang::Stmt& raw : program) {
    const auto* modify = std::get_if<lang::ModifyStateStmt>(&raw);
    const auto* show = std::get_if<lang::ShowStmt>(&raw);
    // A constant modify_state needs no database to evaluate, so it can be
    // enqueued without draining; anything that reads state (including the
    // facts-driven optimizer) must wait for its own writes.
    const bool needs_state =
        show != nullptr || flags.optimize ||
        (modify != nullptr &&
         modify->expr.kind() != lang::Expr::Kind::kConst);
    Database db;
    if (needs_state) {
      if (int rc = settle(); rc != 0) return rc;
      db = exec.Snapshot();
    }
    lang::Catalog catalog(db);
    const lang::Stmt stmt =
        flags.optimize ? OptimizeStmt(raw, catalog, db) : raw;
    if (flags.explain) {
      std::cout << "-- " << lang::StmtToString(stmt) << "\n";
      if (const lang::Expr* expr = StmtExpr(stmt)) {
        std::cout << lang::FormatExprTree(*expr);
      }
    }
    if (show != nullptr) {
      const auto* pipelined_show = std::get_if<lang::ShowStmt>(&stmt);
      // Evaluate on N pinned sessions concurrently. They all open at the
      // drained epoch, so E⟦·⟧ purity demands byte-identical tables; a
      // disagreement is an isolation bug, not a user error.
      std::vector<Session> views;
      views.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) views.push_back(exec.OpenSession());
      std::vector<Result<lang::StateValue>> results(
          sessions, Result<lang::StateValue>(InternalError("not evaluated")));
      std::vector<std::thread> evaluators;
      evaluators.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) {
        evaluators.emplace_back([&, s]() {
          results[s] =
              lang::EvalExpr(pipelined_show->expr, views[s].database());
        });
      }
      for (auto& t : evaluators) t.join();
      Status status = Status::Ok();
      std::string table;
      for (size_t s = 0; s < sessions; ++s) {
        if (!results[s].ok()) {
          status = results[s].status();
          break;
        }
        std::string rendered = lang::FormatTable(*results[s]);
        if (s == 0) {
          table = std::move(rendered);
        } else if (rendered != table) {
          return Fail("session disagreement at epoch " +
                      std::to_string(views[s].epoch()) +
                      ": isolation bug (please report)");
        }
      }
      if (status.ok()) {
        std::cout << table;
      } else if (!flags.lax) {
        return Fail(status.ToString());
      } else {
        std::cerr << "ttra: " << status.ToString() << " (continuing)\n";
      }
      continue;
    }
    auto command = StmtToCommand(stmt, db);
    if (!command.ok()) {
      if (!flags.lax) return Fail(command.status().ToString());
      std::cerr << "ttra: " << command.status().ToString()
                << " (continuing)\n";
      continue;
    }
    std::vector<Command> sentence;
    sentence.push_back(*std::move(command));
    inflight.emplace_back(lang::StmtToString(stmt),
                          exec.SubmitAsync(std::move(sentence)));
    // Unpipelined, each update is acknowledged before the next statement
    // is evaluated, so a failure stops the script with nothing after it
    // committed.
    if (!pipelined) {
      if (int rc = settle(); rc != 0) return rc;
    }
  }
  return settle();
}

/// `run --wal-dir`: the script executes through the ShardedExecutor — one
/// WAL + writer per shard, order-preserving cross-shard group commit —
/// with one shard unless --shards says otherwise. Unless `pipelined`,
/// every update is acknowledged before the next statement. Pipelined,
/// update statements are enqueued asynchronously; only statements that
/// must evaluate against current state — a show, or a modify_state whose
/// expression is not a constant — drain the pipeline first. Show
/// statements are evaluated on `--sessions` reader sessions concurrently;
/// all sessions open at the drained epoch and must produce identical
/// tables.
int CmdRunWalDir(const Flags& flags, const std::string& wal_dir,
                 bool pipelined) {
  // One evaluator thread per session; a MANIFEST holds at most 1024
  // shards.
  size_t sessions = 1;
  if (!CountFlag(flags, "sessions", 1, 1024, sessions)) {
    return UsageError("--sessions expects a whole number in [1, 1024]");
  }
  // One shard, unless the directory's MANIFEST (or --shards, on a fresh
  // directory) says otherwise.
  ShardedOptions options;
  if (!CountFlag(flags, "batch", 1, UINT64_MAX,
                 options.group_commit.max_batch)) {
    return UsageError("--batch expects a positive whole number");
  }
  if (!CountFlag(flags, "shards", 1, 1024, options.shards)) {
    return UsageError("--shards expects a whole number in [1, 1024]");
  }

  std::ifstream in(flags.positional[1]);
  if (!in) return Fail("cannot open script: " + flags.positional[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto program = lang::ParseProgram(buffer.str());
  if (!program.ok()) return Fail(program.status().ToString());
  if (flags.values.count("db")) {
    return Fail("--db and --wal-dir are exclusive; durable state lives in "
                "the wal directory (export it with --save)");
  }

  Env* env = Env::Default();
  if (flags.fresh) {
    Status reset = ResetWalDir(env, wal_dir);
    if (!reset.ok()) return Fail("cannot reset state: " + reset.ToString());
  }
  ShardedExecutor exec(env, wal_dir, options);
  Status started = exec.Start();
  if (!started.ok()) return Fail("recovery failed: " + started.ToString());
  if (flags.recover) {
    ReportRecovery(exec.transaction_number(), exec.last_recovery());
  }
  if (int rc = RunProgram(exec, *program, flags, sessions, pipelined);
      rc != 0) {
    return rc;
  }
  const ShardedExecutor::Stats stats = exec.stats();
  exec.Stop();
  std::cout << "ok (transaction " << exec.transaction_number() << ")\n";
  uint64_t syncs = 0;
  for (const auto& shard : stats.per_shard) syncs += shard.wal.syncs;
  std::cout << "group commit: " << stats.commits << " commit(s) in "
            << stats.batches << " batch(es) across " << exec.shards()
            << " shard(s), largest " << stats.max_batch << ", "
            << stats.cross_shard_batches << " cross-shard, " << syncs
            << " fsync(s)\n";
  return SaveIfRequested(exec.Snapshot(), flags);
}

int CmdRun(const Flags& flags) {
  if (flags.positional.size() != 2) {
    return Fail("usage: ttra run <script> [--db f] [--save f] [--lax] "
                "[--optimize] [--explain] [--wal-dir d] [--fresh] "
                "[--recover] [--group-commit] [--sessions n] [--batch k] "
                "[--shards n]");
  }
  auto wal_dir = flags.values.find("wal-dir");
  const bool pipelined = flags.group_commit || flags.values.count("sessions") ||
                         flags.values.count("batch") ||
                         flags.values.count("shards");
  if (pipelined && wal_dir == flags.values.end()) {
    return Fail("--group-commit/--sessions/--batch/--shards require --wal-dir");
  }
  if (wal_dir != flags.values.end()) {
    return CmdRunWalDir(flags, wal_dir->second, pipelined);
  }
  std::ifstream in(flags.positional[1]);
  if (!in) return Fail("cannot open script: " + flags.positional[1]);
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());

  auto program = lang::ParseProgram(buffer.str());
  if (!program.ok()) return Fail(program.status().ToString());

  const lang::ExecOptions options{.strict = !flags.lax};
  for (const lang::Stmt& raw : *program) {
    lang::Catalog catalog(*db);
    const lang::Stmt stmt =
        flags.optimize ? OptimizeStmt(raw, catalog, *db) : raw;
    if (flags.explain) {
      std::cout << "-- " << lang::StmtToString(stmt) << "\n";
      if (const lang::Expr* expr = StmtExpr(stmt)) {
        std::cout << lang::FormatExprTree(*expr);
      }
    }
    std::vector<lang::StateValue> outputs;
    Status status = lang::ExecStmt(stmt, *db, &outputs, options);
    if (!status.ok()) return Fail(status.ToString());
    for (const auto& value : outputs) {
      std::cout << lang::FormatTable(value);
    }
  }
  std::cout << "ok (transaction " << db->transaction_number() << ")\n";
  return SaveIfRequested(*db, flags);
}

int CmdCheckHelp() {
  std::cout <<
      "usage: ttra check <script> [--json] [--werror]\n"
      "\n"
      "Runs the static diagnostics engine over the script without executing\n"
      "it: per-statement analysis plus the whole-program abstract\n"
      "interpreter (TTRA-W006..W009). Nothing is evaluated and no database\n"
      "is touched.\n"
      "\n"
      "flags:\n"
      "  --json    machine-readable output (schema carries a \"version\"\n"
      "            field; current version " << lang::kDiagnosticsJsonVersion
      << ")\n"
      "  --werror  treat warnings as errors for the exit code\n"
      "\n"
      "exit codes:\n"
      "  0  script is clean (warnings allowed unless --werror)\n"
      "  1  the script has errors, or warnings under --werror\n"
      "  2  usage error or the script cannot be opened\n";
  return 0;
}

int CmdCheck(const Flags& flags) {
  if (flags.help) return CmdCheckHelp();
  if (flags.positional.size() != 2) {
    std::cerr << "ttra: usage: ttra check <script> [--json] [--werror] "
                 "(--help for details)\n";
    return 2;
  }
  const std::string& path = flags.positional[1];
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ttra: cannot open script: " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const lang::DiagnosticSink sink = lang::CheckSource(buffer.str());
  if (flags.json) {
    std::cout << lang::DiagnosticsToJson(sink.diagnostics(), path);
  } else {
    std::cout << lang::FormatDiagnostics(sink.diagnostics(), path);
  }
  if (sink.has_errors()) return 1;
  if (flags.werror && sink.warning_count() > 0) return 1;
  return 0;
}

int CmdDescribe(const Flags& flags) {
  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());
  std::cout << lang::DescribeDatabase(*db);
  return 0;
}

/// `vacuum --wal-dir`: online storage compaction through the live
/// executor. Rewrites every relation's segment chain to a single keyframe
/// at the current tip, collapses the manifest chain to one full record,
/// and truncates the shard WALs — readers pinned at older epochs keep
/// their in-memory states (copy-then-swap; nothing blocks on them).
int CmdVacuumOnline(const Flags& flags, const std::string& wal_dir) {
  if (flags.values.count("db") || flags.values.count("relation") ||
      flags.values.count("before")) {
    return Fail("--wal-dir vacuum compacts the directory's storage online; "
                "it takes no --db/--relation/--before (use the --db form "
                "for per-relation state archival)");
  }
  ShardedExecutor exec(Env::Default(), wal_dir);
  Status started = exec.Start();
  if (!started.ok()) return Fail("recovery failed: " + started.ToString());
  Status compacted = exec.CompactStorage();
  if (!compacted.ok()) {
    return Fail("compaction failed: " + compacted.ToString());
  }
  const uint64_t bytes = exec.compact_store()->ApproxBytes();
  exec.Stop();
  std::cout << "compacted storage (transaction " << exec.transaction_number()
            << ", ~" << bytes << " bytes)\n";
  return 0;
}

int CmdVacuum(const Flags& flags) {
  if (auto dir = flags.values.find("wal-dir"); dir != flags.values.end()) {
    return CmdVacuumOnline(flags, dir->second);
  }
  auto db = LoadOrEmpty(flags);
  if (!db.ok()) return Fail("load failed: " + db.status().ToString());
  auto relation = flags.values.find("relation");
  auto before = flags.values.find("before");
  if (relation == flags.values.end() || before == flags.values.end()) {
    return Fail(
        "usage: ttra vacuum --db f --relation r --before txn "
        "[--archive f] [--save f]  |  ttra vacuum --wal-dir d");
  }
  TransactionNumber cutoff = 0;
  if (!CountFlag(flags, "before", 0, UINT64_MAX, cutoff)) {
    return UsageError("--before expects a transaction number");
  }
  auto result = VacuumRelation(*db, relation->second, cutoff);
  if (!result.ok()) return Fail(result.status().ToString());
  std::cout << "archived " << result->archived_states << " state(s), "
            << result->archive.size() << " bytes\n";
  auto archive_path = flags.values.find("archive");
  if (archive_path != flags.values.end() && !result->archive.empty()) {
    std::ofstream out(archive_path->second,
                      std::ios::binary | std::ios::trunc);
    if (!out) return Fail("cannot write archive: " + archive_path->second);
    out.write(result->archive.data(),
              static_cast<std::streamsize>(result->archive.size()));
  }
  return SaveIfRequested(*db, flags);
}

/// Salvage with full semantic validation: a WAL record must decode into
/// logged sentences and the checkpoint must decode into a database, not
/// merely pass their checksums.
SalvageOptions MakeSalvageOptions() {
  SalvageOptions options;
  options.validate_record = [](std::string_view payload) {
    auto decoded = DecodeWalRecord(payload);
    return decoded.ok() ? Status::Ok() : decoded.status();
  };
  options.validate_shard_record = [](std::string_view payload) {
    auto decoded = DecodeShardRecord(payload);
    return decoded.ok() ? Status::Ok() : decoded.status();
  };
  options.validate_checkpoint = [](std::string_view data) {
    auto db = DecodeDatabase(data);
    return db.ok() ? Status::Ok() : db.status();
  };
  // Lets the scan prove that quarantining a damaged compact state is
  // survivable: replay rebuilds from empty iff the first WAL record's
  // pre-commit transaction number is 0.
  options.wal_record_pre_txn =
      [](std::string_view payload) -> Result<TransactionNumber> {
    auto decoded = DecodeWalRecord(payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded->empty()) {
      return CorruptionError("wal record holds no logged sentence");
    }
    return decoded->front().pre_txn;
  };
  return options;
}

int CmdFsckHelp() {
  std::cout <<
      "usage: ttra fsck --wal-dir <dir> [--json] [--repair]\n"
      "\n"
      "Scans the directory's checkpoint and write-ahead logs: every frame\n"
      "is checksum-verified and decoded, and each corrupt record is\n"
      "reported with its byte offset and cause. A sharded directory\n"
      "(MANIFEST present) is scanned log by log: every shard-<k>.wal plus\n"
      "coordinator.log, with per-log findings. A legacy single-writer\n"
      "directory (one wal.log, written by an earlier build) is scanned as\n"
      "it is; the first open (`run`, `recover`, `vacuum`) migrates it to\n"
      "one shard and removes wal.log. Without --repair\n"
      "nothing is modified. With --repair the damaged bytes are moved to\n"
      "<wal>.quarantine and the log is truncated to its last valid prefix\n"
      "so `ttra recover` succeeds; nothing is ever deleted. Repairing one\n"
      "shard's torn tail is safe: recovery drops every batch beyond the\n"
      "first global gap (all provably unacknowledged), leaving a\n"
      "consistent global prefix.\n"
      "\n"
      "flags:\n"
      "  --json    machine-readable report\n"
      "  --repair  quarantine damaged bytes and truncate the log\n"
      "\n"
      "exit codes (shared with `ttra recover`):\n"
      "  0  clean: checkpoint and log fully intact\n"
      "  1  torn tail only (or damage successfully repaired): recovery\n"
      "     truncates and continues\n"
      "  2  usage error or the directory cannot be read\n"
      "  3  corruption needs repair: intact records are stranded beyond\n"
      "     the damage (or the log header is damaged); rerun with --repair\n"
      "  4  unrecoverable: the checkpoint itself is corrupt\n";
  return 0;
}

int CmdFsck(const Flags& flags) {
  if (flags.help) return CmdFsckHelp();
  auto dir = flags.values.find("wal-dir");
  if (dir == flags.values.end() || flags.positional.size() != 1) {
    std::cerr << "ttra: usage: ttra fsck --wal-dir <dir> [--json] [--repair] "
                 "(--help for details)\n";
    return 2;
  }
  const SalvageOptions options = MakeSalvageOptions();
  Result<SalvageReport> report =
      flags.repair ? RepairStorage(Env::Default(), dir->second, options)
                   : ScanStorage(Env::Default(), dir->second, options);
  if (!report.ok()) {
    std::cerr << "ttra: fsck failed: " << report.status().ToString() << "\n";
    return 2;
  }
  std::cout << (flags.json ? SalvageReportToJson(*report)
                           : FormatSalvageReport(*report));
  return SalvageExitCode(*report);
}

int CmdRecover(const Flags& flags) {
  auto dir = flags.values.find("wal-dir");
  if (dir == flags.values.end() || flags.positional.size() != 1) {
    std::cerr << "ttra: usage: ttra recover --wal-dir <dir> [--save f] "
                 "(exit codes: see `ttra fsck --help`)\n";
    return 2;
  }
  // Classify the damage before touching anything, so the exit code can
  // distinguish clean (0) / recovered-with-truncated-tail (1) /
  // needs-repair (3) / unrecoverable (4), mirroring fsck.
  auto scanned = ScanStorage(Env::Default(), dir->second, MakeSalvageOptions());
  if (!scanned.ok()) {
    std::cerr << "ttra: cannot scan " << dir->second << ": "
              << scanned.status().ToString() << "\n";
    return 2;
  }
  if (scanned->verdict == SalvageVerdict::kNeedsRepair ||
      scanned->verdict == SalvageVerdict::kUnrecoverable) {
    std::cout << FormatSalvageReport(*scanned);
    std::cerr << "ttra: refusing to recover ("
              << SalvageVerdictName(scanned->verdict)
              << "); run `ttra fsck --repair --wal-dir " << dir->second
              << "`\n";
    return SalvageExitCode(*scanned);
  }
  ShardedExecutor exec(Env::Default(), dir->second);
  Status started = exec.Start();
  if (!started.ok()) {
    std::cerr << "ttra: recovery failed: " << started.ToString() << "\n";
    return 4;
  }
  ReportRecovery(exec.transaction_number(), exec.last_recovery());
  const Database db = exec.Snapshot();
  exec.Stop();
  std::cout << lang::DescribeDatabase(db);
  const int saved = SaveIfRequested(db, flags);
  if (saved != 0) return saved;
  return SalvageExitCode(*scanned);  // 0 clean, 1 truncated tail
}

// --- modelcheck ------------------------------------------------------------

int CmdModelcheck(const Flags& flags) {
  modelcheck::ExploreOptions options;
  if (!CountFlag(flags, "preemptions", 0, INT32_MAX,
                 options.preemption_bound) ||
      !CountFlag(flags, "max-schedules", 0, UINT64_MAX,
                 options.max_schedules) ||
      !CountFlag(flags, "max-steps", 1, UINT64_MAX,
                 options.max_steps_per_run)) {
    return UsageError(
        "--preemptions, --max-schedules and --max-steps expect whole "
        "numbers");
  }
  auto scenario_it = flags.values.find("scenario");
  const std::string which =
      scenario_it == flags.values.end() ? "all" : scenario_it->second;

  // --replay "d1,d2,...": re-execute one decision sequence and show it.
  auto replay_it = flags.values.find("replay");
  if (replay_it != flags.values.end()) {
    if (which == "all") {
      return UsageError("modelcheck --replay needs an explicit --scenario");
    }
    modelcheck::Scenario scenario =
        modelcheck::FindScenario(which, flags.seeded_bug);
    if (!scenario.run) return UsageError("unknown scenario: " + which);
    std::vector<uint64_t> decisions;
    if (!modelcheck::ParseDecisions(replay_it->second, &decisions)) {
      return UsageError("malformed --replay decision list: " +
                        replay_it->second);
    }
    modelcheck::ReplayResult replay =
        modelcheck::Replay(scenario.run, decisions, options.max_steps_per_run);
    std::cout << modelcheck::RenderTrace(replay.run);
    if (replay.failed) {
      std::cout << "replay violates: "
                << (replay.failure_message.empty() ? replay.run.error
                                                   : replay.failure_message)
                << "\n";
      return 1;
    }
    std::cout << "replay clean (" << replay.run.steps << " steps)\n";
    return 0;
  }

  // --seeded-bug: the sharded scenario with a deliberately broken
  // durability watermark; success means the explorer CAUGHT it.
  if (flags.seeded_bug) {
    modelcheck::Scenario seeded = which == "all"
        ? modelcheck::ShardedCrossShardScenario(/*seeded_bug=*/true)
        : modelcheck::FindScenario(which, /*seeded_bug=*/true);
    if (!seeded.run) return UsageError("unknown scenario: " + which);
    modelcheck::ExploreResult result =
        modelcheck::Explore(seeded.run, options);
    if (result.failed) {
      std::cout << seeded.name << " [seeded bug]: caught after "
                << result.schedules << " schedules\n"
                << modelcheck::FormatFailure(result);
      return 0;
    }
    std::cerr << "ttra: seeded bug ESCAPED " << result.schedules
              << " schedules (bound " << options.preemption_bound << ")\n";
    return 1;
  }

  std::vector<modelcheck::Scenario> scenarios;
  if (which == "all") {
    scenarios = modelcheck::AllScenarios();
  } else {
    modelcheck::Scenario one = modelcheck::FindScenario(which);
    if (!one.run) return UsageError("unknown scenario: " + which);
    scenarios.push_back(std::move(one));
  }

  for (const modelcheck::Scenario& scenario : scenarios) {
    modelcheck::ExploreResult result =
        modelcheck::Explore(scenario.run, options);
    if (result.failed) {
      std::cout << scenario.name << ": VIOLATION after " << result.schedules
                << " schedules\n"
                << modelcheck::FormatFailure(result);
      return 1;
    }
    std::cout << scenario.name << ": " << result.schedules << " schedules ("
              << (result.exhausted ? "exhausted" : "capped")
              << " at preemption bound " << options.preemption_bound
              << "), longest run " << result.max_steps_seen << " steps\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (const std::string error = ParseFlags(argc, argv, flags);
      !error.empty()) {
    return UsageError(error +
                      "\nusage: ttra <run|check|describe|vacuum|recover|"
                      "fsck|modelcheck> ...");
  }
  const std::string& command = flags.positional[0];
  if (command == "run") return CmdRun(flags);
  if (command == "check") return CmdCheck(flags);
  if (command == "describe") return CmdDescribe(flags);
  if (command == "vacuum") return CmdVacuum(flags);
  if (command == "recover") return CmdRecover(flags);
  if (command == "fsck") return CmdFsck(flags);
  return CmdModelcheck(flags);  // ParseFlags admits only known commands
}
