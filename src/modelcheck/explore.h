#ifndef TTRA_MODELCHECK_EXPLORE_H_
#define TTRA_MODELCHECK_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "modelcheck/sched.h"

namespace ttra {
namespace modelcheck {

/// Per-run context handed to a scenario: invariant checks, recorded, not
/// throwing — the run always finishes cleanly so its threads can retire.
/// Scenario threads wait only through the instrumented primitives (the
/// executor's futures are deferred, so get() waits on them too).
class ModelContext {
 public:
  /// Records the first failed check; later ones are ignored. The scenario
  /// should keep going — teardown (Stop/join) must still happen.
  void Check(bool ok, const std::string& message) {
    if (!ok && !failed_) {
      failed_ = true;
      failure_ = message;
    }
  }

  bool failed() const { return failed_; }
  const std::string& failure() const { return failure_; }

 private:
  bool failed_ = false;
  std::string failure_;
};

struct ExploreOptions {
  /// Iterative context bound: schedules needing more preemptions (forced
  /// switches away from a runnable task) are not explored. Empirically
  /// (CHESS) almost all protocol bugs need very few.
  int preemption_bound = 2;
  /// 0 = unlimited. Otherwise stop (capped, not exhausted) after this many
  /// schedules — CI budget control.
  uint64_t max_schedules = 0;
  /// Per-run step backstop against livelock (see RunOutcome::step_cap).
  uint64_t max_steps_per_run = 200000;
};

struct ExploreResult {
  uint64_t schedules = 0;   ///< schedules actually executed
  bool exhausted = false;   ///< every schedule within the bound explored
  bool capped = false;      ///< stopped by max_schedules
  bool failed = false;      ///< some schedule violated an invariant
  /// Failure detail (valid when failed): the violating run, the scenario's
  /// failed check (empty for deadlock/livelock), and the decision string
  /// that replays it (`ttra modelcheck --replay`).
  RunOutcome failure_run;
  std::string failure_message;
  std::string failure_decisions;
  uint64_t max_steps_seen = 0;  ///< longest run (scenario size gauge)
};

/// Explores the schedules of `scenario` by DFS over branch decisions with
/// sleep-set pruning under the preemption bound. The scenario runs once
/// per schedule with a fresh ModelContext; it must be self-contained
/// (create its own Env/executors) and deterministic apart from scheduling.
/// Stops at the first failing schedule.
ExploreResult Explore(const std::function<void(ModelContext&)>& scenario,
                      const ExploreOptions& options = {});

/// Re-executes `scenario` under one fixed decision sequence (from
/// RenderDecisions / ExploreResult::failure_decisions) and returns the
/// outcome plus the context's recorded failure, if any.
struct ReplayResult {
  RunOutcome run;
  std::string failure_message;
  bool failed = false;
};
ReplayResult Replay(const std::function<void(ModelContext&)>& scenario,
                    const std::vector<uint64_t>& decisions,
                    uint64_t max_steps_per_run = 200000);

/// Multi-line human-readable failure report: message, decisions, trace.
std::string FormatFailure(const ExploreResult& result);

}  // namespace modelcheck
}  // namespace ttra

#endif  // TTRA_MODELCHECK_EXPLORE_H_
