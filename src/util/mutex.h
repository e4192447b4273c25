#ifndef TTRA_UTIL_MUTEX_H_
#define TTRA_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/sched_hooks.h"
#include "util/thread_annotations.h"

namespace ttra {

// Annotated wrappers over the standard mutexes. Clang's thread-safety
// analysis only tracks capabilities whose acquire/release functions are
// annotated, and the standard library's are not — so guarded code holds
// these instead. Near-zero overhead: every method is a single inlined
// forward, plus one relaxed load of the model-checker hook pointer
// (util/sched_hooks.h) that is null everywhere outside `ttra modelcheck`.
// When hooks are installed and the calling thread is scheduler-managed,
// the operation routes to the scheduler's virtual primitive instead —
// execution is serialized there, so the std:: object underneath is never
// touched and every operation becomes an explorable schedule point.

namespace sched_internal {
inline SchedHooks* ManagedHooks() {
  SchedHooks* hooks = ActiveSchedHooks();
  if (hooks != nullptr && hooks->OnManagedThread()) return hooks;
  return nullptr;
}
}  // namespace sched_internal

class TTRA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TTRA_ACQUIRE() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->MutexLock(this);
      return;
    }
    m_.lock();
  }
  void Unlock() TTRA_RELEASE() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->MutexUnlock(this);
      return;
    }
    m_.unlock();
  }
  bool TryLock() TTRA_TRY_ACQUIRE(true) {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      return hooks->MutexTryLock(this);
    }
    return m_.try_lock();
  }

 private:
  std::mutex m_;
};

class TTRA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() TTRA_ACQUIRE() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->SharedLock(this);
      return;
    }
    m_.lock();
  }
  void Unlock() TTRA_RELEASE() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->SharedUnlock(this);
      return;
    }
    m_.unlock();
  }
  void ReaderLock() TTRA_ACQUIRE_SHARED() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->SharedReaderLock(this);
      return;
    }
    m_.lock_shared();
  }
  void ReaderUnlock() TTRA_RELEASE_SHARED() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->SharedReaderUnlock(this);
      return;
    }
    m_.unlock_shared();
  }

 private:
  std::shared_mutex m_;
};

/// std::lock_guard for Mutex.
class TTRA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) TTRA_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() TTRA_RELEASE() { mutex_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Exclusive (writer) scoped lock for SharedMutex.
class TTRA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) TTRA_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.Lock();
  }
  ~WriterMutexLock() TTRA_RELEASE() { mutex_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable usable with the annotated Mutex. Waits release the
/// mutex atomically and reacquire it before returning, so TTRA_REQUIRES
/// call sites remain sound: the caller provably holds the mutex on both
/// sides of the wait. Prefer the predicate overloads — they are immune to
/// spurious wakeups and make the wait condition explicit (no sleep-based
/// polling anywhere in guarded code).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously); prefer the predicate overload.
  void Wait(Mutex& mutex) TTRA_REQUIRES(mutex) {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->CondWait(this, &mutex);
      return;
    }
    LockFacade lockable{mutex};
    cv_.wait(lockable);
  }

  /// Blocks until `predicate()` is true.
  template <typename Predicate>
  void Wait(Mutex& mutex, Predicate predicate) TTRA_REQUIRES(mutex) {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      while (!predicate()) hooks->CondWait(this, &mutex);
      return;
    }
    LockFacade lockable{mutex};
    cv_.wait(lockable, std::move(predicate));
  }

  void Signal() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->CondSignal(this);
      return;
    }
    cv_.notify_one();
  }
  void SignalAll() {
    if (SchedHooks* hooks = sched_internal::ManagedHooks()) {
      hooks->CondSignalAll(this);
      return;
    }
    cv_.notify_all();
  }

 private:
  // BasicLockable view of Mutex for condition_variable_any. The analysis
  // is suppressed inside: wait() toggles the lock in a pattern the static
  // checker cannot follow, but the capability is held again on return.
  struct LockFacade {
    Mutex& mutex;
    void lock() TTRA_NO_THREAD_SAFETY_ANALYSIS { mutex.Lock(); }
    void unlock() TTRA_NO_THREAD_SAFETY_ANALYSIS { mutex.Unlock(); }
  };

  std::condition_variable_any cv_;
};

/// Shared (reader) scoped lock for SharedMutex.
class TTRA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) TTRA_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.ReaderLock();
  }
  ~ReaderMutexLock() TTRA_RELEASE() { mutex_.ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

}  // namespace ttra

#endif  // TTRA_UTIL_MUTEX_H_
