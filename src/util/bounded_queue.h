#ifndef TTRA_UTIL_BOUNDED_QUEUE_H_
#define TTRA_UTIL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "util/mutex.h"

namespace ttra {

/// Bounded multi-producer queue built on the annotated Mutex/CondVar
/// primitives. Producers block while the queue is full (backpressure, so a
/// burst of sessions cannot exhaust memory); the consumer drains in
/// batches of whatever queued while it was busy — the group-commit
/// accumulation pattern, with no timer. All waits are predicate-based:
/// there is no sleep/poll loop anywhere, so the queue is immune to the
/// spurious-wakeup and lost-notify flakiness sleeps paper over.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false — dropping `item` — if
  /// the queue is (or becomes) closed before space opens up.
  bool Push(T item) {
    MutexLock lock(mutex_);
    not_full_.Wait(mutex_, [this]() TTRA_REQUIRES(mutex_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.Signal();
    return true;
  }

  /// Pops up to `max` items. Blocks until at least one item is available,
  /// then takes what is queued without waiting for more. An empty result
  /// means the queue is closed and fully drained — the consumer's
  /// termination signal.
  std::vector<T> PopBatch(size_t max) {
    std::vector<T> batch;
    if (max == 0) return batch;
    MutexLock lock(mutex_);
    not_empty_.Wait(mutex_, [this]() TTRA_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    const size_t take = std::min(max, items_.size());
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (take > 0) not_full_.SignalAll();
    return batch;
  }

  /// Closes the queue: every blocked producer fails its Push, and the
  /// consumer drains the remaining items before seeing empty batches.
  void Close() {
    MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.SignalAll();
    not_full_.SignalAll();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ TTRA_GUARDED_BY(mutex_);
  bool closed_ TTRA_GUARDED_BY(mutex_) = false;
};

}  // namespace ttra

#endif  // TTRA_UTIL_BOUNDED_QUEUE_H_
