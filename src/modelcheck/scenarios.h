#ifndef TTRA_MODELCHECK_SCENARIOS_H_
#define TTRA_MODELCHECK_SCENARIOS_H_

#include <functional>
#include <string>
#include <vector>

#include "modelcheck/explore.h"

namespace ttra {
namespace modelcheck {

/// A named commit-protocol scenario: a self-contained program (fresh
/// InMemoryEnv + scaled-down executor per run) whose invariant checks must
/// hold on EVERY schedule the explorer can produce.
struct Scenario {
  std::string name;
  std::string description;
  std::function<void(ModelContext&)> run;
};

/// `ShardedExecutor` with one shard, 1 writer + 2 client tasks (max_batch
/// 4, so both clients can share a batch). A client waiting on its own
/// sentence leads the batch when the log is idle, so the explored
/// schedules race caller-led batches against the writer. Checks gap-free
/// transaction chaining, read-your-writes after ack, published-epoch
/// monotonicity,
/// epoch-pinned sessions ≡ ρ(·, epoch), clean Stop() quiescence.
Scenario ConcurrentCommitScenario();

/// `ShardedExecutor`, 2 shards × 2 cross-shard client sentences (opposite
/// home shards): the home-shard prepare/commit protocol plus the
/// durability watermark, under the same invariant set. With `seeded_bug` the executor
/// runs with ProtocolFaultsForTests::ack_out_of_order — the watermark skip
/// the explorer must catch on some schedule.
Scenario ShardedCrossShardScenario(bool seeded_bug = false);

/// The scenarios `ttra modelcheck` / check.sh --model iterate (bug-free
/// configurations only).
std::vector<Scenario> AllScenarios();

/// Lookup by name ("concurrent", "sharded-cross"); null run on miss.
Scenario FindScenario(const std::string& name, bool seeded_bug = false);

}  // namespace modelcheck
}  // namespace ttra

#endif  // TTRA_MODELCHECK_SCENARIOS_H_
