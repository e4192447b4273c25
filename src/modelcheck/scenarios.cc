#include "modelcheck/scenarios.h"

#include <algorithm>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "rollback/sharded_executor.h"
#include "storage/env.h"
#include "util/vthread.h"

namespace ttra {
namespace modelcheck {

namespace {

Schema TinySchema() {
  return *Schema::Make({{"v", ValueType::kInt}});
}

SnapshotState RowState(int64_t value) {
  return *SnapshotState::Make(TinySchema(), {Tuple{Value::Int(value)}});
}

/// A relation name homed on `shard` (of `shards`) under ShardOfName.
std::string NameOnShard(size_t shard, size_t shards) {
  for (int i = 0;; ++i) {
    std::string candidate = "mrel_" + std::to_string(i);
    if (ShardOfName(candidate, shards) == shard) return candidate;
  }
}

}  // namespace

Scenario ConcurrentCommitScenario() {
  Scenario scenario;
  scenario.name = "concurrent";
  scenario.description =
      "ShardedExecutor(shards=1): 2 clients that lead their own batches "
      "when the log is idle + the writer as fallback leader; gap-free "
      "chaining, read-your-writes, epoch pinning, monotone publish";
  scenario.run = [](ModelContext& t) {
    InMemoryEnv env;
    ShardedOptions options;
    options.durable.sync_policy = SyncPolicy::kAlways;
    options.group_commit.max_batch = 4;
    options.shards = 1;
    ShardedExecutor exec(&env, "db", options);
    t.Check(exec.Start().ok(), "Start() succeeds");
    {
      Result<TransactionNumber> defined = exec.Submit({Command{
          DefineRelationCmd{"acct", RelationType::kRollback, TinySchema()}}});
      t.Check(defined.ok() && *defined == 1, "define commits at txn 1");
    }
    Session pinned = exec.OpenSession();
    t.Check(pinned.epoch() == 1, "pinned session opens at epoch 1");

    // Commit-order publish monotonicity, sampled at every spin of every
    // waiting client (shared watermark: the published epoch is global).
    TransactionNumber acked[2] = {0, 0};
    TransactionNumber watermark = 1;
    auto sample = [&t, &exec, &watermark] {
      const TransactionNumber now = exec.transaction_number();
      t.Check(now >= watermark, "published epoch never regresses");
      watermark = std::max(watermark, now);
    };
    // Client 0 submits asynchronously, which wakes the writer, then
    // waits on the deferred future; client 1 submits synchronously, which
    // does not. Either client leads its own batch when it finds the log
    // idle, so caller-led batches race each other and the writer.
    auto commit = [&sample, &exec](int client, std::vector<Command> sentence) {
      sample();
      Result<TransactionNumber> result =
          client == 0 ? exec.SubmitAsync(std::move(sentence)).get()
                      : exec.Submit(std::move(sentence));
      sample();
      return result;
    };

    ttra::Thread clients[2];
    for (int i = 0; i < 2; ++i) {
      clients[i] = ttra::Thread([&t, &exec, &acked, &commit, i] {
        Result<TransactionNumber> r = commit(
            i, {Command{ModifySnapshotCmd{"acct", RowState(100 + i)}}});
        t.Check(r.ok(), "client commit acknowledged ok");
        if (!r.ok()) return;
        acked[i] = *r;
        // Read-your-writes: any session opened after the ack is at or past
        // the acked txn and rho(acct, acked) is exactly our write.
        Session mine = exec.OpenSession();
        t.Check(mine.epoch() >= *r,
                "read-your-writes: post-ack session at/after own txn");
        auto state = mine.Rollback("acct", *r);
        t.Check(state.ok() && *state == RowState(100 + i),
                "rho(acct, own txn) is own write");
      });
    }
    clients[0].join();
    clients[1].join();
    t.Check(exec.Drain().ok(), "Drain() succeeds");

    // Gap-free transaction chaining: the two acks fill {2, 3} exactly.
    t.Check(acked[0] != 0 && acked[1] != 0, "both clients acked");
    t.Check(std::min(acked[0], acked[1]) == 2 &&
                std::max(acked[0], acked[1]) == 3,
            "acked txns are gap-free {2,3}");
    t.Check(exec.transaction_number() == 3, "final epoch is 3");

    // Epoch pinning: the pre-write session still evaluates rho(., 1).
    t.Check(pinned.epoch() == 1, "pinned epoch unchanged");
    auto old_state = pinned.Rollback("acct");
    t.Check(old_state.ok() && old_state->empty(),
            "pinned session sees the pre-write state");

    Session final_session = exec.OpenSession();
    for (int i = 0; i < 2; ++i) {
      auto state = final_session.Rollback("acct", acked[i]);
      t.Check(state.ok() && *state == RowState(100 + i),
              "rho(acct, acked) stable after drain");
    }
    exec.Stop();
    t.Check(exec.transaction_number() == 3, "epoch stable across Stop()");
  };
  return scenario;
}

Scenario ShardedCrossShardScenario(bool seeded_bug) {
  Scenario scenario;
  scenario.name = "sharded-cross";
  scenario.description =
      "ShardedExecutor: 2 shards, 2 opposite-homed cross-shard sentences "
      "whose waiting clients may lead; two-phase prepare + durability "
      "watermark invariants";
  scenario.run = [seeded_bug](ModelContext& t) {
    InMemoryEnv env;
    ShardedOptions options;
    options.durable.sync_policy = SyncPolicy::kAlways;
    options.shards = 2;
    options.test_faults.ack_out_of_order = seeded_bug;
    ShardedExecutor exec(&env, "db", options);
    t.Check(exec.Start().ok(), "Start() succeeds");

    const std::string r0 = NameOnShard(0, 2);
    const std::string r1 = NameOnShard(1, 2);
    {
      auto d0 = exec.Submit({Command{
          DefineRelationCmd{r0, RelationType::kRollback, TinySchema()}}});
      t.Check(d0.ok() && *d0 == 1, "define r0 at txn 1");
      auto d1 = exec.Submit({Command{
          DefineRelationCmd{r1, RelationType::kRollback, TinySchema()}}});
      t.Check(d1.ok() && *d1 == 2, "define r1 at txn 2");
    }
    Session pinned = exec.OpenSession();
    t.Check(pinned.epoch() == 2, "pinned session opens at epoch 2");

    TransactionNumber acked[2] = {0, 0};
    TransactionNumber watermark = 2;
    auto sample = [&t, &exec, &watermark] {
      const TransactionNumber now = exec.transaction_number();
      t.Check(now >= watermark,
              "published epoch never regresses (watermark order)");
      watermark = std::max(watermark, now);
    };
    // Both clients submit synchronously, so each leads its own shard's
    // batch and the two batches race through ordering and the watermark
    // on the clients' own threads; the writers are fallback leaders
    // only. ("concurrent" covers the deferred SubmitAsync path.)
    auto commit = [&sample, &exec](std::vector<Command> sentence) {
      sample();
      Result<TransactionNumber> result = exec.Submit(std::move(sentence));
      sample();
      return result;
    };

    // Two cross-shard sentences homed on OPPOSITE shards: each prepares in
    // its own WAL, cross-prepares into the other, and both race through
    // the global ordering + watermark. Client i writes 10*(i+1) + relation.
    ttra::Thread clients[2];
    for (int i = 0; i < 2; ++i) {
      clients[i] = ttra::Thread([&t, &exec, &acked, &commit, &r0, &r1, i] {
        const std::string& home = i == 0 ? r0 : r1;
        const std::string& other = i == 0 ? r1 : r0;
        Result<TransactionNumber> r = commit(
            {Command{ModifySnapshotCmd{home, RowState(10 * (i + 1))}},
             Command{ModifySnapshotCmd{other, RowState(10 * (i + 1) + 1)}}});
        t.Check(r.ok(), "cross-shard commit acknowledged ok");
        if (!r.ok()) return;
        acked[i] = *r;
        Session mine = exec.OpenSession();
        t.Check(mine.epoch() >= *r,
                "read-your-writes: post-ack session at/after own txn");
        // The sentence is one ordering unit: at its post-txn both its
        // writes are the latest.
        auto home_state = mine.Rollback(home, *r);
        t.Check(home_state.ok() && *home_state == RowState(10 * (i + 1)),
                "rho(home, acked) is own write");
        auto other_state = mine.Rollback(other, *r);
        t.Check(other_state.ok() &&
                    *other_state == RowState(10 * (i + 1) + 1),
                "rho(other, acked) is own write");
      });
    }
    clients[0].join();
    clients[1].join();
    t.Check(exec.Drain().ok(), "Drain() succeeds");

    // Gap-free chaining: 2 defines + 2×2 modifies ⇒ acks at {4, 6}.
    t.Check(acked[0] != 0 && acked[1] != 0, "both clients acked");
    t.Check(std::min(acked[0], acked[1]) == 4 &&
                std::max(acked[0], acked[1]) == 6,
            "acked txns are gap-free {4,6}");
    t.Check(exec.transaction_number() == 6, "final epoch is 6");

    // Epoch pinning across the whole commit storm.
    t.Check(pinned.epoch() == 2, "pinned epoch unchanged");
    auto pinned_r0 = pinned.Rollback(r0);
    auto pinned_r1 = pinned.Rollback(r1);
    t.Check(pinned_r0.ok() && pinned_r0->empty() && pinned_r1.ok() &&
                pinned_r1->empty(),
            "pinned session sees the pre-write state");

    exec.Stop();
    t.Check(exec.transaction_number() == 6, "epoch stable across Stop()");
    // rho(., acked) re-checked from a post-stop session: durable + ordered.
    Session final_session = exec.OpenSession();
    for (int i = 0; i < 2; ++i) {
      if (acked[i] == 0) continue;
      const std::string& home = i == 0 ? r0 : r1;
      auto state = final_session.Rollback(home, acked[i]);
      t.Check(state.ok() && *state == RowState(10 * (i + 1)),
              "rho(home, acked) stable after Stop()");
    }
  };
  return scenario;
}

std::vector<Scenario> AllScenarios() {
  return {ConcurrentCommitScenario(), ShardedCrossShardScenario(false)};
}

Scenario FindScenario(const std::string& name, bool seeded_bug) {
  if (name == "concurrent") return ConcurrentCommitScenario();
  if (name == "sharded-cross") return ShardedCrossShardScenario(seeded_bug);
  return Scenario{};
}

}  // namespace modelcheck
}  // namespace ttra
