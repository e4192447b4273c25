#include "modelcheck/sched.h"

#include <sstream>

namespace ttra {
namespace modelcheck {

// The thread-local current-task pointer. Declared as void* plus the owning
// scheduler so stale values from an abandoned (leaked) scheduler can never
// be mistaken for this one's tasks.
namespace internal {
struct TlsTask {
  void* task = nullptr;
  ModelScheduler* sched = nullptr;
};
thread_local TlsTask tls_task;
}  // namespace internal

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kThreadStart: return "ThreadStart";
    case OpKind::kMutexLock: return "MutexLock";
    case OpKind::kMutexUnlock: return "MutexUnlock";
    case OpKind::kMutexTryLock: return "MutexTryLock";
    case OpKind::kSharedLock: return "SharedLock";
    case OpKind::kSharedUnlock: return "SharedUnlock";
    case OpKind::kSharedReaderLock: return "SharedReaderLock";
    case OpKind::kSharedReaderUnlock: return "SharedReaderUnlock";
    case OpKind::kCondWait: return "CondWait";
    case OpKind::kCondSignal: return "CondSignal";
    case OpKind::kCondSignalAll: return "CondSignalAll";
    case OpKind::kThreadJoin: return "ThreadJoin";
    case OpKind::kThreadExit: return "ThreadExit";
    case OpKind::kYield: return "Yield";
  }
  return "?";
}

bool Dependent(const OpSig& a, const OpSig& b) {
  if (a.kind == OpKind::kYield || b.kind == OpKind::kYield) return false;
  const uint64_t none = OpSig::kNoObject;
  return (a.obj != none && (a.obj == b.obj || a.obj == b.obj2)) ||
         (a.obj2 != none && (a.obj2 == b.obj || a.obj2 == b.obj2));
}

ModelScheduler::ModelScheduler(Config config) : config_(std::move(config)) {}

ModelScheduler::~ModelScheduler() = default;

bool ModelScheduler::OnManagedThread() {
  return internal::tls_task.sched == this &&
         internal::tls_task.task != nullptr;
}

uint64_t ModelScheduler::ObjectId(void* address) {
  auto [it, inserted] =
      object_ids_.emplace(address, static_cast<uint64_t>(object_ids_.size()));
  return it->second;
}

// ---------------------------------------------------------------------------
// Hook entry points: translate to OpSig and hit the schedule point.
// ---------------------------------------------------------------------------

void ModelScheduler::MutexLock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kMutexLock, ObjectId(mutex)});
}
void ModelScheduler::MutexUnlock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kMutexUnlock, ObjectId(mutex)});
}
bool ModelScheduler::MutexTryLock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  return SyncOp(lock, OpSig{OpKind::kMutexTryLock, ObjectId(mutex)});
}
void ModelScheduler::SharedLock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kSharedLock, ObjectId(mutex)});
}
void ModelScheduler::SharedUnlock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kSharedUnlock, ObjectId(mutex)});
}
void ModelScheduler::SharedReaderLock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kSharedReaderLock, ObjectId(mutex)});
}
void ModelScheduler::SharedReaderUnlock(void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kSharedReaderUnlock, ObjectId(mutex)});
}
void ModelScheduler::CondWait(void* cv, void* mutex) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kCondWait, ObjectId(cv), ObjectId(mutex)});
}
void ModelScheduler::CondSignal(void* cv) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kCondSignal, ObjectId(cv)});
}
void ModelScheduler::CondSignalAll(void* cv) {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kCondSignalAll, ObjectId(cv)});
}
void ModelScheduler::Yield() {
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kYield});
}

uint64_t ModelScheduler::ThreadCreate() {
  std::unique_lock<std::mutex> lock(global_);
  const uint64_t id = static_cast<uint64_t>(tasks_.size());
  auto task = std::make_unique<Task>();
  task->id = id;
  task->sched = this;
  task->state = Task::State::kAtPoint;
  task->pending = OpSig{OpKind::kThreadStart, TaskObjectId(id)};
  tasks_.push_back(std::move(task));
  return id;
}

void ModelScheduler::ThreadEntry(uint64_t task) {
  std::unique_lock<std::mutex> lock(global_);
  Task* self = tasks_[task].get();
  internal::tls_task = {self, this};
  // The first grant (our kThreadStart op) may already have arrived.
  WaitForGrant(lock, self);
}

void ModelScheduler::ThreadExit(uint64_t task) {
  std::unique_lock<std::mutex> lock(global_);
  Task* self = tasks_[task].get();
  internal::tls_task = {nullptr, nullptr};
  if (failed_) return;  // run over; let the OS thread exit
  // Exit is a schedule point that cannot block: apply it immediately,
  // grant the next task and return — this OS thread is about to die.
  self->state = Task::State::kAtPoint;
  self->pending = OpSig{OpKind::kThreadExit, TaskObjectId(task)};
  ApplyOp(self);
  ScheduleNext(lock, self);
}

void ModelScheduler::ThreadJoin(uint64_t task) {
  if (!OnManagedThread()) return;  // unmanaged joiner: real join suffices
  std::unique_lock<std::mutex> lock(global_);
  SyncOp(lock, OpSig{OpKind::kThreadJoin, TaskObjectId(task)});
}

// ---------------------------------------------------------------------------
// Core machinery. Everything below runs with global_ held.
// ---------------------------------------------------------------------------

bool ModelScheduler::SyncOp(std::unique_lock<std::mutex>& lock, OpSig op) {
  Task* self = static_cast<Task*>(internal::tls_task.task);
  if (failed_) ParkForever(lock, self);
  self->state = Task::State::kAtPoint;
  self->pending = op;
  if (op.kind == OpKind::kCondWait) {
    // A cond wait's entry effects are immediate (they are what the real
    // primitive does atomically before blocking): release the mutex —
    // which may enable other tasks — and join the waiter queue.
    auto mu = mutexes_.find(op.obj2);
    if (mu != mutexes_.end()) mu->second.owner = MutexState::kNone;
    condvars_[op.obj].waiters.push_back(self->id);
    signaled_.erase(self->id);
  }
  ScheduleNext(lock, self);
  return self->grant_flag;
}

bool ModelScheduler::Enabled(const Task& task) const {
  const OpSig& op = task.pending;
  switch (op.kind) {
    case OpKind::kMutexLock: {
      auto it = mutexes_.find(op.obj);
      return it == mutexes_.end() || it->second.owner == MutexState::kNone;
    }
    case OpKind::kSharedLock: {
      auto it = shared_mutexes_.find(op.obj);
      return it == shared_mutexes_.end() ||
             (it->second.writer == MutexState::kNone &&
              it->second.readers.empty());
    }
    case OpKind::kSharedReaderLock: {
      auto it = shared_mutexes_.find(op.obj);
      return it == shared_mutexes_.end() ||
             it->second.writer == MutexState::kNone;
    }
    case OpKind::kCondWait: {
      if (signaled_.count(task.id) == 0) return false;
      auto it = mutexes_.find(op.obj2);
      return it == mutexes_.end() || it->second.owner == MutexState::kNone;
    }
    case OpKind::kThreadJoin: {
      const uint64_t target = op.obj - kTaskObjectBase;
      return target < tasks_.size() &&
             tasks_[target]->state == Task::State::kFinished;
    }
    default:
      return true;  // unlocks, signals, trylock, yield, start, exit
  }
}

void ModelScheduler::ApplyOp(Task* task) {
  const OpSig& op = task->pending;
  switch (op.kind) {
    case OpKind::kMutexLock:
      mutexes_[op.obj].owner = task->id;
      break;
    case OpKind::kMutexUnlock:
      mutexes_[op.obj].owner = MutexState::kNone;
      break;
    case OpKind::kMutexTryLock: {
      MutexState& m = mutexes_[op.obj];
      task->grant_flag = m.owner == MutexState::kNone;
      if (task->grant_flag) m.owner = task->id;
      break;
    }
    case OpKind::kSharedLock:
      shared_mutexes_[op.obj].writer = task->id;
      break;
    case OpKind::kSharedUnlock:
      shared_mutexes_[op.obj].writer = MutexState::kNone;
      break;
    case OpKind::kSharedReaderLock:
      shared_mutexes_[op.obj].readers.insert(task->id);
      break;
    case OpKind::kSharedReaderUnlock:
      shared_mutexes_[op.obj].readers.erase(task->id);
      break;
    case OpKind::kCondWait:
      // Granted only when signaled: consume the signal, reacquire.
      signaled_.erase(task->id);
      mutexes_[op.obj2].owner = task->id;
      break;
    case OpKind::kCondSignal: {
      auto& waiters = condvars_[op.obj].waiters;
      if (!waiters.empty()) {
        signaled_.insert(waiters.front());
        waiters.pop_front();
      }
      break;
    }
    case OpKind::kCondSignalAll: {
      auto& waiters = condvars_[op.obj].waiters;
      for (uint64_t waiter : waiters) signaled_.insert(waiter);
      waiters.clear();
      break;
    }
    case OpKind::kThreadExit:
      task->state = Task::State::kFinished;
      break;
    case OpKind::kThreadStart:
    case OpKind::kThreadJoin:
    case OpKind::kYield:
      break;
  }
  if (task->state != Task::State::kFinished) {
    task->state = Task::State::kRunning;
  }
  outcome_.trace.push_back(Step{task->id, op, false});
  ++steps_;
  // Sleep-set maintenance: an applied op wakes every sleeper whose pending
  // op does not commute with it (and the chosen task itself).
  for (auto it = sleep_.begin(); it != sleep_.end();) {
    if (it->first == task->id || Dependent(it->second, op)) {
      it = sleep_.erase(it);
    } else {
      ++it;
    }
  }
}

void ModelScheduler::FailRun(const std::string& error, bool deadlock,
                             bool step_cap, bool divergence) {
  failed_ = true;
  outcome_.deadlock = deadlock;
  outcome_.step_cap = step_cap;
  outcome_.replay_divergence = divergence;
  outcome_.error = error;
  done_cv_.notify_all();
}

void ModelScheduler::ParkForever(std::unique_lock<std::mutex>& lock,
                                 Task* self) {
  // Terminal state for a managed thread after the run has failed: it can
  // never be granted again, and the scheduler (which owns `lock`'s mutex
  // and self->cv) will be leaked by the owner. Detached, it sleeps here
  // for the remainder of the process.
  for (;;) self->cv.wait(lock);
}

void ModelScheduler::WaitForGrant(std::unique_lock<std::mutex>& lock,
                                  Task* self) {
  self->cv.wait(lock, [self] { return self->go; });
  self->go = false;
}

void ModelScheduler::ScheduleNext(std::unique_lock<std::mutex>& lock,
                                  Task* self) {
  if (!failed_ && steps_ >= config_.max_steps) {
    FailRun("step cap exceeded: livelock or lost wakeup (a task is likely "
            "spinning on a condition that can no longer become true)",
            /*deadlock=*/false, /*step_cap=*/true, /*divergence=*/false);
  }

  Task* chosen = nullptr;
  if (!failed_) {
    std::vector<Task*> runnable;   // enabled, non-yield
    std::vector<Task*> yielding;   // enabled, yield
    size_t unfinished = 0;
    for (const auto& task : tasks_) {
      if (task->state == Task::State::kFinished) continue;
      ++unfinished;
      if (!Enabled(*task)) continue;
      (task->pending.kind == OpKind::kYield ? yielding : runnable)
          .push_back(task.get());
    }
    if (unfinished == 0) {
      done_ = true;
      done_cv_.notify_all();
      return;
    }
    if (runnable.empty() && yielding.empty()) {
      std::ostringstream os;
      os << "deadlock: no task can run;";
      for (const auto& task : tasks_) {
        if (task->state == Task::State::kFinished) continue;
        os << " t" << task->id << " blocked at "
           << OpKindName(task->pending.kind) << "(o" << task->pending.obj
           << ")";
      }
      FailRun(os.str(), /*deadlock=*/true, /*step_cap=*/false,
              /*divergence=*/false);
    } else if (!runnable.empty()) {
      const bool self_costly = self != nullptr &&
                               self->state == Task::State::kAtPoint &&
                               self->pending.kind != OpKind::kYield &&
                               Enabled(*self);
      if (runnable.size() == 1) {
        chosen = runnable.front();
      } else {
        // Branch point: record it, take the forced choice inside the
        // replay prefix, the cost-free default beyond it.
        BranchRecord rec;
        rec.step_index = steps_;
        rec.self = self != nullptr ? self->id : OpSig::kNoObject;
        rec.self_costly = self_costly;
        rec.preemptions_before = preemptions_;
        for (Task* task : runnable) {
          rec.candidates.push_back(task->id);
          rec.candidate_ops.push_back(task->pending);
        }
        rec.sleeping.assign(sleep_.begin(), sleep_.end());
        if (next_branch_ < config_.forced.size()) {
          const ForcedChoice& forced = config_.forced[next_branch_];
          // Replay decisions carry no expectation data (empty set = skip).
          if (!forced.expected_candidates.empty() &&
              forced.expected_candidates != rec.candidates) {
            std::ostringstream os;
            os << "replay divergence at branch " << next_branch_
               << ": candidate set changed across runs (unintercepted "
               << "nondeterminism?)";
            FailRun(os.str(), false, false, /*divergence=*/true);
          } else {
            for (Task* task : runnable) {
              if (task->id == forced.chosen) chosen = task;
            }
            if (chosen == nullptr) {
              FailRun("replay divergence: forced choice not enabled", false,
                      false, /*divergence=*/true);
            } else {
              // Fully-explored siblings go to sleep: revisiting them from
              // here would re-explore a finished subtree.
              for (const auto& [task_id, sig] : forced.extra_sleep) {
                sleep_[task_id] = sig;
              }
            }
          }
        } else if (self_costly) {
          chosen = self;  // staying on the current task is always free
        } else {
          chosen = runnable.front();
          for (Task* task : runnable) {
            if (sleep_.count(task->id) == 0) {
              chosen = task;
              break;
            }
          }
        }
        if (chosen != nullptr) {
          rec.chosen = chosen->id;
          outcome_.branches.push_back(std::move(rec));
          ++next_branch_;
          if (self_costly && chosen != self) ++preemptions_;
        }
      }
    } else {
      // Only yield-spinners are runnable. Their order never matters
      // (yields commute with everything), so don't branch — but do
      // round-robin past self so one spinner cannot monopolize the run.
      chosen = yielding.front();
      if (self != nullptr) {
        for (Task* task : yielding) {
          if (task->id > self->id) {
            chosen = task;
            break;
          }
        }
      }
    }

    if (chosen != nullptr) {
      const bool preempting = self != nullptr && chosen != self &&
                              self->state == Task::State::kAtPoint &&
                              self->pending.kind != OpKind::kYield &&
                              Enabled(*self);
      ApplyOp(chosen);
      if (preempting) outcome_.trace.back().forced_switch = true;
      if (chosen != self) {
        chosen->go = true;
        chosen->cv.notify_one();
      }
    }
  }

  if (failed_) {
    if (self != nullptr && self->state != Task::State::kFinished) {
      ParkForever(lock, self);
    }
    return;
  }
  if (chosen == self) return;  // keep running without a handoff
  if (self != nullptr && self->state == Task::State::kAtPoint) {
    WaitForGrant(lock, self);
  }
}

RunOutcome ModelScheduler::Run(const std::function<void()>& body) {
  {
    std::unique_lock<std::mutex> lock(global_);
    auto root = std::make_unique<Task>();
    root->id = 0;
    root->sched = this;
    root->state = Task::State::kAtPoint;
    root->pending = OpSig{OpKind::kThreadStart, TaskObjectId(0)};
    tasks_.push_back(std::move(root));
  }
  InstallSchedHooks(this);
  std::thread root_thread([this, &body] {
    ThreadEntry(0);
    body();
    ThreadExit(0);
  });
  {
    std::unique_lock<std::mutex> lock(global_);
    ScheduleNext(lock, nullptr);  // initial grant: only the root is ready
    done_cv_.wait(lock, [this] { return done_ || failed_; });
  }
  InstallSchedHooks(nullptr);
  if (failed_) {
    // Managed threads are parked forever on this scheduler's condition
    // variables; they (and the scenario state on their stacks) are leaked
    // deliberately. The owner must check Abandoned() and leak *this.
    abandoned_ = true;
    root_thread.detach();
  } else {
    root_thread.join();
  }
  std::unique_lock<std::mutex> lock(global_);
  outcome_.completed = done_ && !failed_;
  outcome_.abandoned = abandoned_;
  outcome_.steps = steps_;
  outcome_.preemptions = preemptions_;
  return outcome_;
}

// ---------------------------------------------------------------------------
// Rendering / parsing.
// ---------------------------------------------------------------------------

std::string RenderTrace(const RunOutcome& outcome) {
  std::map<uint64_t, size_t> branch_at;  // step index -> branch ordinal
  for (size_t i = 0; i < outcome.branches.size(); ++i) {
    branch_at[outcome.branches[i].step_index] = i;
  }
  std::ostringstream os;
  for (size_t i = 0; i < outcome.trace.size(); ++i) {
    const Step& step = outcome.trace[i];
    os << (step.forced_switch ? "  #" : "   ") << i << "  t" << step.task
       << "  " << OpKindName(step.op.kind);
    if (step.op.obj != OpSig::kNoObject) {
      if (step.op.obj >= (uint64_t{1} << 32)) {
        os << " task" << (step.op.obj - (uint64_t{1} << 32));
      } else {
        os << " o" << step.op.obj;
      }
    }
    if (step.op.obj2 != OpSig::kNoObject) os << " o" << step.op.obj2;
    auto branch = branch_at.find(i);
    if (branch != branch_at.end()) {
      const BranchRecord& rec = outcome.branches[branch->second];
      os << "    « decision " << branch->second << ": chose t" << rec.chosen
         << " of {";
      for (size_t c = 0; c < rec.candidates.size(); ++c) {
        os << (c != 0 ? "," : "") << "t" << rec.candidates[c];
      }
      os << "} »";
    }
    os << "\n";
  }
  return os.str();
}

std::string RenderDecisions(const RunOutcome& outcome) {
  std::ostringstream os;
  for (size_t i = 0; i < outcome.branches.size(); ++i) {
    os << (i != 0 ? "," : "") << outcome.branches[i].chosen;
  }
  return os.str();
}

bool ParseDecisions(std::string_view text, std::vector<uint64_t>* decisions) {
  decisions->clear();
  if (text.empty()) return true;
  uint64_t value = 0;
  bool in_number = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<uint64_t>(c - '0');
      in_number = true;
    } else if (c == ',' && in_number) {
      decisions->push_back(value);
      value = 0;
      in_number = false;
    } else {
      return false;
    }
  }
  if (!in_number) return false;
  decisions->push_back(value);
  return true;
}

}  // namespace modelcheck
}  // namespace ttra
