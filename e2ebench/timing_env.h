// Timing and counting Env decorator over PosixEnv: the storage layer's
// per-layer numbers (sync and append times, bytes) come from here, and its
// counts are checked against the executor's own WAL accounting.

#ifndef TTRA_E2EBENCH_TIMING_ENV_H_
#define TTRA_E2EBENCH_TIMING_ENV_H_

#include <atomic>
#include <string>

#include "storage/env.h"
#include "trace.h"

namespace e2e {

class TimingEnv : public ttra::Env {
 public:
  struct Counts {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
    uint64_t wal_appends = 0;  ///< appends to shard-<k>.wal files
    uint64_t wal_syncs = 0;    ///< syncs of shard-<k>.wal files
    uint64_t read_bytes = 0;
  };

  explicit TimingEnv(ttra::Env* base) : base_(base) {}

  Counts counts() const {
    Counts c;
    c.appends = appends_.load();
    c.append_bytes = append_bytes_.load();
    c.syncs = syncs_.load();
    c.sync_ns = sync_ns_.load();
    c.wal_appends = wal_appends_.load();
    c.wal_syncs = wal_syncs_.load();
    c.read_bytes = read_bytes_.load();
    return c;
  }

  ttra::Status Append(const std::string& path, std::string_view data) override {
    const int64_t start = NowNs();
    ttra::Status status = base_->Append(path, data);
    Trace("storage.append", start);
    appends_.fetch_add(1);
    append_bytes_.fetch_add(data.size());
    if (IsShardWal(path)) wal_appends_.fetch_add(1);
    return status;
  }

  ttra::Status Sync(const std::string& path) override {
    const int64_t start = NowNs();
    ttra::Status status = base_->Sync(path);
    const int64_t end = Trace("storage.sync", start);
    syncs_.fetch_add(1);
    sync_ns_.fetch_add(static_cast<uint64_t>(end - start));
    if (IsShardWal(path)) wal_syncs_.fetch_add(1);
    return status;
  }

  ttra::Result<std::string> Read(const std::string& path) const override {
    const int64_t start = NowNs();
    ttra::Result<std::string> data = base_->Read(path);
    Trace("storage.read", start);
    if (data.ok()) read_bytes_.fetch_add(data->size());
    return data;
  }

  ttra::Status Truncate(const std::string& path) override {
    return base_->Truncate(path);
  }
  ttra::Status TruncateTo(const std::string& path, uint64_t size) override {
    return base_->TruncateTo(path, size);
  }
  ttra::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  ttra::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  ttra::Result<std::vector<std::string>> List(
      const std::string& dir) const override {
    return base_->List(dir);
  }
  ttra::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }

 private:
  static bool IsShardWal(const std::string& path) {
    const size_t slash = path.rfind('/');
    const std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return name.rfind("shard-", 0) == 0 && name.size() > 4 &&
           name.compare(name.size() - 4, 4, ".wal") == 0;
  }

  /// Records a storage span (no parent: it runs on whichever thread does
  /// the I/O) when tracing is on; returns the end time.
  static int64_t Trace(const char* name, int64_t start) {
    const int64_t end = NowNs();
    Tracer& tracer = GlobalTracer();
    if (tracer.active()) tracer.Record(Span{name, start, end, -1, 0});
    return end;
  }

  ttra::Env* base_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_syncs_{0};
  mutable std::atomic<uint64_t> read_bytes_{0};
};

}  // namespace e2e

#endif  // TTRA_E2EBENCH_TIMING_ENV_H_
