#ifndef TTRA_MODELCHECK_SCHED_H_
#define TTRA_MODELCHECK_SCHED_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/sched_hooks.h"

namespace ttra {
namespace modelcheck {

// ---------------------------------------------------------------------------
// Deterministic scheduler for bounded model checking (CHESS/loom style).
// ---------------------------------------------------------------------------
//
// ModelScheduler installs itself as the process SchedHooks and serializes a
// set of managed OS threads ("tasks"): exactly one runs at a time, and every
// synchronization operation (util/mutex.h, util/vthread.h) is a schedule point where the scheduler decides who runs
// next. Because execution is serialized, the scheduler's own bookkeeping IS
// the lock/condvar state — the std:: primitives underneath are never touched
// by managed threads.
//
// A single Run() executes the program under one schedule, determined by a
// forced decision prefix (for replay / DFS exploration) followed by a
// default policy. It records a full operation trace and, at every point
// where more than one task could run, a BranchRecord the explorer uses to
// enumerate alternatives (explore.h).

/// Kinds of schedule-point operations.
enum class OpKind : uint8_t {
  kThreadStart,   ///< first grant of a newly created task
  kMutexLock,
  kMutexUnlock,
  kMutexTryLock,
  kSharedLock,
  kSharedUnlock,
  kSharedReaderLock,
  kSharedReaderUnlock,
  kCondWait,
  kCondSignal,
  kCondSignalAll,
  kThreadJoin,
  kThreadExit,
  kYield,
};

std::string_view OpKindName(OpKind kind);

/// A schedule-point operation with its footprint: the small-integer ids of
/// the objects it touches (mutexes, condvars, or per-task pseudo-objects
/// for join/exit). Two operations of different tasks are *dependent* iff
/// both are non-yield and their footprints intersect — the commutativity
/// test behind sleep-set pruning.
struct OpSig {
  OpKind kind = OpKind::kYield;
  uint64_t obj = kNoObject;   ///< primary object (mutex, cv, task)
  uint64_t obj2 = kNoObject;  ///< secondary (the mutex of a cond wait)

  static constexpr uint64_t kNoObject = ~uint64_t{0};
};

bool Dependent(const OpSig& a, const OpSig& b);

/// One applied operation in the trace.
struct Step {
  uint64_t task = 0;
  OpSig op;
  bool forced_switch = false;  ///< a non-default (preempting) choice
};

/// A point in the run where >1 non-yielding task was enabled. The explorer
/// enumerates the alternatives across runs.
struct BranchRecord {
  uint64_t step_index = 0;             ///< index into the trace
  std::vector<uint64_t> candidates;    ///< enabled non-yield tasks (sorted)
  std::vector<OpSig> candidate_ops;    ///< parallel to candidates
  uint64_t chosen = 0;
  uint64_t self = OpSig::kNoObject;    ///< the task that reached the point
  bool self_costly = false;  ///< self was enabled non-yield: switching costs
  int preemptions_before = 0;
  /// Sleep set at node entry: tasks (with their pending ops) whose
  /// exploration from here is provably redundant.
  std::vector<std::pair<uint64_t, OpSig>> sleeping;
};

/// One forced decision for a branch node inside the replayed prefix.
struct ForcedChoice {
  uint64_t chosen = 0;
  /// Candidate set the parent run saw at this node; the run fails with
  /// `replay_divergence` if the re-execution disagrees (nondeterminism
  /// outside the scheduler's control, e.g. an unintercepted primitive).
  std::vector<uint64_t> expected_candidates;
  /// Choices already fully explored at this node — entered into the sleep
  /// set before continuing, which is what makes sleep-set pruning carry
  /// across sibling subtrees.
  std::vector<std::pair<uint64_t, OpSig>> extra_sleep;
};

/// Outcome of one Run().
struct RunOutcome {
  bool completed = false;          ///< every task retired cleanly
  bool deadlock = false;           ///< unfinished tasks, none enabled
  bool step_cap = false;           ///< livelock / lost-wakeup backstop
  bool replay_divergence = false;  ///< prefix re-execution mismatch
  /// True when managed OS threads were left parked (deadlock/step-cap):
  /// the scheduler must then be leaked, not destroyed — see Abandoned().
  bool abandoned = false;
  uint64_t steps = 0;
  int preemptions = 0;
  std::vector<Step> trace;
  std::vector<BranchRecord> branches;
  std::string error;  ///< human-readable detail for the failure flags
};

class ModelScheduler : public SchedHooks {
 public:
  struct Config {
    std::vector<ForcedChoice> forced;
    /// Backstop against yield-spin livelock (e.g. an ack that never
    /// arrives): a run exceeding this many schedule points fails.
    uint64_t max_steps = 200000;
  };

  explicit ModelScheduler(Config config);
  ~ModelScheduler() override;

  /// Executes `body` as the root managed task and drives every task it
  /// spawns (ttra::Thread) to completion under one schedule. Must be
  /// called from an unmanaged thread, once per ModelScheduler.
  ///
  /// If the outcome has `abandoned` set, parked OS threads still reference
  /// this object and it must be leaked by the caller (see Abandoned()).
  RunOutcome Run(const std::function<void()>& body);

  /// True iff Run() left parked threads behind (deadlock / step cap). The
  /// owner must then intentionally leak the scheduler: the parked threads
  /// are detached and blocked forever on its condition variables.
  bool Abandoned() const { return abandoned_; }

  // SchedHooks implementation (managed threads only).
  bool OnManagedThread() override;
  void MutexLock(void* mutex) override;
  void MutexUnlock(void* mutex) override;
  bool MutexTryLock(void* mutex) override;
  void SharedLock(void* mutex) override;
  void SharedUnlock(void* mutex) override;
  void SharedReaderLock(void* mutex) override;
  void SharedReaderUnlock(void* mutex) override;
  void CondWait(void* cv, void* mutex) override;
  void CondSignal(void* cv) override;
  void CondSignalAll(void* cv) override;
  uint64_t ThreadCreate() override;
  void ThreadEntry(uint64_t task) override;
  void ThreadExit(uint64_t task) override;
  void ThreadJoin(uint64_t task) override;
  void Yield() override;

 private:
  struct Task {
    uint64_t id = 0;
    ModelScheduler* sched = nullptr;
    enum class State : uint8_t {
      kAtPoint,   ///< parked at a schedule point; `pending` is valid
      kRunning,   ///< executing user code; `pending` is stale
      kFinished,
    } state = State::kAtPoint;
    OpSig pending;
    bool grant_flag = false;  ///< result for TryLock
    bool go = false;          ///< handoff token
    std::condition_variable cv;
  };

  // Virtual primitive state, keyed by small object id.
  struct MutexState {
    uint64_t owner = kNone;
    static constexpr uint64_t kNone = ~uint64_t{0};
  };
  struct SharedState {
    uint64_t writer = MutexState::kNone;
    std::set<uint64_t> readers;
  };
  struct CvState {
    std::deque<uint64_t> waiters;  ///< FIFO signal delivery
  };

  /// Small dense id for an object address, assigned in first-touch order —
  /// deterministic across runs of the same schedule, so ids are stable in
  /// traces and footprints.
  uint64_t ObjectId(void* address);
  static uint64_t TaskObjectId(uint64_t task) { return kTaskObjectBase + task; }
  static constexpr uint64_t kTaskObjectBase = uint64_t{1} << 32;

  /// Records `op` as the caller's pending operation and blocks until the
  /// scheduler grants it (applying its effects). Returns the grant flag
  /// (TryLock acquired). `lock` holds `global_`.
  bool SyncOp(std::unique_lock<std::mutex>& lock, OpSig op);

  /// Core decision procedure, called with `global_` held by the task
  /// leaving a schedule point (or by Run() for the initial grant, with
  /// self == nullptr). Picks the next task, applies its pending op, and
  /// hands off. Returns false when the run is over (done or failed) and
  /// the caller should park forever (failure) or return (self finished).
  void ScheduleNext(std::unique_lock<std::mutex>& lock, Task* self);

  bool Enabled(const Task& task) const;
  void ApplyOp(Task* task);
  void FailRun(const std::string& error, bool deadlock, bool step_cap,
               bool divergence);
  void ParkForever(std::unique_lock<std::mutex>& lock, Task* self);
  void WaitForGrant(std::unique_lock<std::mutex>& lock, Task* self);

  Config config_;

  std::mutex global_;
  std::condition_variable done_cv_;
  bool done_ = false;
  bool failed_ = false;
  bool abandoned_ = false;
  RunOutcome outcome_;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::thread> os_threads_;

  std::map<void*, uint64_t> object_ids_;
  std::map<uint64_t, MutexState> mutexes_;
  std::map<uint64_t, SharedState> shared_mutexes_;
  std::map<uint64_t, CvState> condvars_;
  /// CondVar wakeups delivered but not yet consumed, per task.
  std::set<uint64_t> signaled_;

  /// Sleep set: tasks whose pending op is provably redundant to schedule
  /// right now, with the op they went to sleep on.
  std::map<uint64_t, OpSig> sleep_;

  uint64_t steps_ = 0;
  int preemptions_ = 0;
  size_t next_branch_ = 0;  ///< index into config_.forced
};

/// Renders a trace (optionally with the decision list) for failure reports:
/// one line per step, branch decisions marked.
std::string RenderTrace(const RunOutcome& outcome);

/// The branch decisions of a run as a compact replayable string, e.g.
/// "2,0,1" — the chosen task id at each branch point in order.
std::string RenderDecisions(const RunOutcome& outcome);

/// Parses RenderDecisions output; returns false on malformed input.
bool ParseDecisions(std::string_view text, std::vector<uint64_t>* decisions);

}  // namespace modelcheck
}  // namespace ttra

#endif  // TTRA_MODELCHECK_SCHED_H_
