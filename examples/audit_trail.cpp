// Audit trail: a rollback relation as a tamper-evident account ledger.
//
// Rollback relations are append-only — past states are never modified —
// so ρ(accounts, N) reconstructs exactly what the database said after any
// transaction: an audit trail for free. The example also drives updates
// through the Quel front-end (the calculus → algebra mapping of §1/§5)
// and diffs two past states with the algebra itself. The final section
// makes the ledger crash-proof with the write-ahead log: a simulated
// power cut mid-update loses nothing that was acknowledged.

#include <iostream>

#include "lang/evaluator.h"
#include "lang/printer.h"
#include "quel/quel.h"
#include "rollback/sharded_executor.h"
#include "storage/env.h"

namespace {

// Applies one Quel statement, reporting the transaction it committed as.
bool Apply(ttra::Database& db, std::string_view quel_source) {
  using namespace ttra;
  auto stmt = quel::ParseQuel(quel_source);
  if (!stmt.ok()) {
    std::cerr << "parse error: " << stmt.status() << "\n";
    return false;
  }
  auto compiled = quel::CompileQuel(*stmt, lang::Catalog(db));
  if (!compiled.ok()) {
    std::cerr << "compile error: " << compiled.status() << "\n";
    return false;
  }
  Status status = lang::ExecStmt(*compiled, db);
  if (!status.ok()) {
    std::cerr << "exec error: " << status << "\n";
    return false;
  }
  std::cout << "txn " << db.transaction_number() << ": " << quel_source
            << "\n    → " << lang::StmtToString(*compiled) << "\n";
  return true;
}

}  // namespace

int main() {
  using namespace ttra;

  // Every state of the ledger is kept in full, as the paper defines it;
  // consecutive states share every tuple they have in common, so storage
  // grows with change volume, not state size.
  Database db;
  Status status = lang::Run(
      "define_relation(accounts, rollback, (owner: string, balance: int));",
      db);
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }

  const char* updates[] = {
      R"(append to accounts (owner = "alice", balance = 1000))",
      R"(append to accounts (owner = "bob", balance = 500))",
      R"(replace accounts set balance = balance - 300 where owner = "alice")",
      R"(replace accounts set balance = balance + 300 where owner = "bob")",
      R"(append to accounts (owner = "carol", balance = 250))",
      R"(delete accounts where owner = "bob")",
  };
  for (const char* update : updates) {
    if (!Apply(db, update)) return 1;
  }

  std::cout << "\nCurrent ledger:\n"
            << lang::FormatTable(*db.Rollback("accounts")) << "\n";

  // The audit: replay the ledger state after every transaction.
  std::cout << "Audit trail (state after each transaction):\n";
  for (TransactionNumber txn = 1; txn <= db.transaction_number(); ++txn) {
    auto state = db.Rollback("accounts", txn);
    std::cout << "  after txn " << txn << ": ";
    for (const Tuple& t : state->tuples()) {
      std::cout << t.at(0).AsString() << "=" << t.at(1).AsInt() << "  ";
    }
    std::cout << "\n";
  }

  // Where did the money move between txn 4 and txn 6? The algebra answers
  // with plain difference over two rollback results — no special audit
  // machinery needed.
  std::vector<lang::StateValue> outputs;
  status = lang::Run(R"(
    show(rho(accounts, 4) minus rho(accounts, 6));
    show(rho(accounts, 6) minus rho(accounts, 4));
  )", db, &outputs);
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  std::cout << "\nRows present at txn 4 but gone by txn 6:\n"
            << lang::FormatTable(outputs[0]);
  std::cout << "\nRows new or changed by txn 6:\n"
            << lang::FormatTable(outputs[1]);

  std::cout << "\nStorage: " << lang::DescribeDatabase(db);

  // --- Crash safety ---------------------------------------------------
  // An audit trail is only as trustworthy as its durability: an append
  // that vanishes in a crash is exactly the tampering the ledger exists
  // to rule out. The durable executor (one writer shard here) logs every
  // command to a write-ahead log and fsyncs it before acknowledging. We
  // demonstrate with the fault-injection environment, which simulates a
  // power cut deterministically; swap in Env::Default() and a real
  // directory for production use.
  std::cout << "\n--- durable ledger with a simulated power cut ---\n";
  FaultInjectionEnv env;
  const Schema ledger_schema = *Schema::Make(
      {{"owner", ValueType::kString}, {"balance", ValueType::kInt}});
  auto account = [&](const char* owner, int64_t balance) {
    return *SnapshotState::Make(
        ledger_schema, {Tuple{Value::String(owner), Value::Int(balance)}});
  };

  ShardedOptions one_writer;
  one_writer.shards = 1;
  {
    ShardedExecutor ledger(&env, "ledger", one_writer);
    if (!ledger.Start().ok()) return 1;
    (void)ledger.Submit(
        DefineRelationCmd{"accounts", RelationType::kRollback, ledger_schema});
    auto acked = ledger.Submit(ModifySnapshotCmd{"accounts",
                                                 account("alice", 1000)});
    std::cout << "acknowledged txn " << *acked << ": alice=1000\n";

    // The power cut: the next disk write fails mid-operation, and
    // everything that was never fsync'ed evaporates.
    env.InjectFault(1, FaultInjectionEnv::FaultMode::kTornAppend);
    auto lost = ledger.Submit(ModifySnapshotCmd{"accounts",
                                                account("mallory", 9999)});
    std::cout << "unacknowledged update: " << lost.status() << "\n";
    std::cout << "executor is now read-only: "
              << ledger.Submit(ModifySnapshotCmd{"accounts",
                                                 account("bob", 1)})
                     .status()
              << "\n";
  }
  env.Crash();  // drop all unsynced writes, as the machine dying would

  // Reopen after the "reboot": recovery replays the log and lands on the
  // acknowledged prefix — alice's deposit survives, mallory's torn write
  // does not.
  ShardedExecutor recovered(&env, "ledger", one_writer);
  if (!recovered.Start().ok()) return 1;
  const auto info = recovered.last_recovery();
  std::cout << "recovered transaction " << recovered.transaction_number()
            << " (checkpoint at " << info.checkpoint_txn << ", "
            << info.replayed_sentences << " sentence(s) replayed"
            << (info.torn_tails > 0 ? ", torn tail truncated" : "") << ")\n"
            << lang::FormatTable(
                   *recovered.OpenSession().Rollback("accounts"));
  return 0;
}
