#ifndef TTRA_UTIL_SCHED_HOOKS_H_
#define TTRA_UTIL_SCHED_HOOKS_H_

#include <cstdint>

namespace ttra {

/// Interception seam for the deterministic model checker (src/modelcheck).
///
/// The synchronization primitives in util/mutex.h and util/vthread.h
/// consult the installed hooks with one relaxed atomic
/// load per operation and fall through to the real std:: primitives when
/// no hooks are installed (always true in production — nothing outside
/// the model checker ever installs them) or when the calling thread is
/// not one of the scheduler's managed virtual threads. Production code
/// paths are therefore unchanged apart from a predictable never-taken
/// branch; there is no dual build and no ODR hazard.
///
/// Under an installed scheduler, every operation below is a schedule
/// point: the scheduler serializes all managed threads (exactly one runs
/// at a time), decides who proceeds at each point, and explores the
/// decision tree across repeated runs. Because execution is serialized,
/// the virtual primitives never touch the underlying std:: objects — the
/// scheduler's own bookkeeping is the lock/condvar state.
class SchedHooks {
 public:
  virtual ~SchedHooks() = default;

  /// True iff the calling thread is a scheduler-managed virtual thread.
  /// Unmanaged threads (e.g. the test harness's main thread) always use
  /// the real primitives, even while hooks are installed.
  virtual bool OnManagedThread() = 0;

  // Mutex (identity = object address).
  virtual void MutexLock(void* mutex) = 0;
  virtual void MutexUnlock(void* mutex) = 0;
  virtual bool MutexTryLock(void* mutex) = 0;

  // SharedMutex.
  virtual void SharedLock(void* mutex) = 0;
  virtual void SharedUnlock(void* mutex) = 0;
  virtual void SharedReaderLock(void* mutex) = 0;
  virtual void SharedReaderUnlock(void* mutex) = 0;

  // CondVar. Wait atomically releases `mutex`, blocks until signaled and
  // reacquires.
  virtual void CondWait(void* cv, void* mutex) = 0;
  virtual void CondSignal(void* cv) = 0;
  virtual void CondSignalAll(void* cv) = 0;

  // Virtual threads (util/vthread.h). ThreadCreate allocates a task id on
  // the parent; ThreadEntry parks the new OS thread until first scheduled;
  // ThreadExit retires the task; ThreadJoin blocks until the target exits.
  virtual uint64_t ThreadCreate() = 0;
  virtual void ThreadEntry(uint64_t task) = 0;
  virtual void ThreadExit(uint64_t task) = 0;
  virtual void ThreadJoin(uint64_t task) = 0;

  /// Voluntary schedule point for bounded polling loops (e.g. waiting on a
  /// std::future that a managed task will resolve). Yielding tasks are
  /// deprioritized: the scheduler runs them only when no non-yielding task
  /// is runnable, so spin-wait loops cannot starve real progress.
  virtual void Yield() = 0;
};

/// The installed hooks, or nullptr (production). One relaxed load.
SchedHooks* ActiveSchedHooks();

/// Installs (or, with nullptr, removes) the process-global hooks. Model
/// checker only. Must not race any managed-primitive operation: install
/// before the scheduled program starts, remove after every managed thread
/// has exited.
void InstallSchedHooks(SchedHooks* hooks);

}  // namespace ttra

#endif  // TTRA_UTIL_SCHED_HOOKS_H_
