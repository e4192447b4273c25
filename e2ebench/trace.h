// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around each call into a module of the system, and
// by the storage decorator (timing_env.h) around each Env call; nothing
// is written until the run ends.

#ifndef TTRA_E2EBENCH_TRACE_H_
#define TTRA_E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: "<module>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index into the span list; -1 = root
  uint64_t request = 0;   ///< operation id; 0 = not tied to one (writer)
};

class Tracer {
 public:
  /// Recording is on only while set; the benchmark turns it on around traced
  /// operations, so untraced operations in the same run pay nothing.
  void SetActive(bool on) { active_.store(on, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Appends a finished span with no parent (a storage call).
  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  /// Appends a finished operation: its root span, then its children,
  /// whose parent becomes the root's index.
  void RecordOp(const Span& root, const std::vector<Span>& children) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t index = static_cast<int64_t>(spans_.size());
    spans_.push_back(root);
    for (Span child : children) {
      child.parent = index;
      spans_.push_back(child);
    }
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> active_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide tracer (the storage decorator and the benchmark share it).
Tracer& GlobalTracer();

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>& values, double p);

}  // namespace e2e

#endif  // TTRA_E2EBENCH_TRACE_H_
