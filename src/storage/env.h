#ifndef TTRA_STORAGE_ENV_H_
#define TTRA_STORAGE_ENV_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/random.h"
#include "util/result.h"

namespace ttra {

/// Injectable filesystem abstraction used by everything that touches disk
/// (the WAL, checkpoints, recovery). Keeping the interface path-based and
/// tiny — append / sync / rename / read / list — makes it possible to slot
/// in a deterministic in-memory backend and a fault-injecting backend, so
/// crash behaviour can be tested at every single write point instead of
/// hoping kill -9 lands somewhere interesting.
///
/// Durability contract implementations must honor:
///  * Append(path, data) creates the file if needed and appends; the data
///    is NOT durable until Sync(path) returns OK.
///  * Rename(from, to) atomically replaces `to` and durably records the
///    rename itself (POSIX: fsync the containing directory).
///  * After a crash, a file may hold any prefix of its appended bytes that
///    is at least its content as of the last successful Sync. A `*.wal`
///    file may instead hold its synced content, then a prefix of the
///    later writes, then zero bytes: PosixEnv keeps such a log
///    zero-written ahead of its end (see PosixEnv), and ReadWal reads an
///    all-zero remainder at a record boundary as the log's clean end.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates `path` as an empty file (truncating any existing content).
  virtual Status Truncate(const std::string& path) = 0;

  /// Truncates `path` to exactly `size` bytes (must not exceed the current
  /// file size). The write-path repair primitive: a failed append may
  /// leave a torn frame, and truncating back to the last known-good
  /// boundary makes the append retryable; `ttra fsck --repair` uses it to
  /// cut a corrupt tail after quarantining it.
  virtual Status TruncateTo(const std::string& path, uint64_t size) = 0;

  /// Appends `data` to `path`, creating it if absent.
  virtual Status Append(const std::string& path, std::string_view data) = 0;

  /// Durably flushes all appended data of `path` to storage.
  virtual Status Sync(const std::string& path) = 0;

  /// Reads the entire file.
  virtual Result<std::string> Read(const std::string& path) const = 0;

  /// Atomically replaces `to` with `from` and makes the rename durable.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  /// File names (not paths) in `dir`, sorted; "." and ".." excluded.
  virtual Result<std::vector<std::string>> List(const std::string& dir)
      const = 0;

  /// Creates `dir` (OK if it already exists) and makes it durable.
  virtual Status CreateDir(const std::string& dir) = 0;

  virtual bool Exists(const std::string& path) const = 0;

  /// Process-wide PosixEnv singleton.
  static Env* Default();
};

/// Real filesystem backend. Append/Sync keep an open-descriptor cache so a
/// WAL append does not pay an open(2) per record.
///
/// A `*.wal` file (a shard log) is kept zero-written ahead of its logical
/// end, so a commit's fsync has no file size or block allocation to
/// journal. The append that runs past the zeroed region writes its record
/// in place, zero-writes the next 1 MiB from one static page and
/// fdatasyncs; every other record is a pwrite into blocks already on disk,
/// and Sync of such a file is fdatasync. The file's first append (a log
/// header) is never followed by zeros. Read and TruncateTo see the logical
/// size this Env wrote; after a crash, or in another Env, the file keeps
/// its zero tail until the log is cut or re-created (ShardedExecutor::Stop
/// cuts it). Other files are O_APPEND and synced with fsync.
class PosixEnv : public Env {
 public:
  PosixEnv() = default;
  ~PosixEnv() override;

  Status Truncate(const std::string& path) override;
  Status TruncateTo(const std::string& path, uint64_t size) override;
  Status Append(const std::string& path, std::string_view data) override;
  Status Sync(const std::string& path) override;
  Result<std::string> Read(const std::string& path) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& dir) const override;
  Status CreateDir(const std::string& dir) override;
  bool Exists(const std::string& path) const override;

 private:
  /// One cached descriptor. A pre-zeroed file (`*.wal`) is written in
  /// place at `end`, its logical size; [end, zeroed) is already zero on
  /// disk. Any other file's descriptor is O_APPEND.
  struct OpenFile {
    int fd = -1;
    bool prezeroed = false;
    uint64_t end = 0;
    uint64_t zeroed = 0;
  };

  /// Returns the cached descriptor for `path`, opening (and creating the
  /// file) on first use. Caller holds mutex_.
  Result<OpenFile*> OpenLocked(const std::string& path) TTRA_REQUIRES(mutex_);
  void DropFdLocked(const std::string& path) TTRA_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, OpenFile> files_ TTRA_GUARDED_BY(mutex_);
};

/// Deterministic in-memory backend. Tracks, per file, how much of the
/// content has been Sync()ed, so a simulated crash (DropUnsynced) can
/// discard exactly the bytes a real power loss is allowed to lose.
class InMemoryEnv : public Env {
 public:
  Status Truncate(const std::string& path) override;
  Status TruncateTo(const std::string& path, uint64_t size) override;
  Status Append(const std::string& path, std::string_view data) override;
  Status Sync(const std::string& path) override;
  Result<std::string> Read(const std::string& path) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& dir) const override;
  Status CreateDir(const std::string& dir) override;
  bool Exists(const std::string& path) const override;

  /// Simulates power loss: every file loses all bytes appended after its
  /// last successful Sync. Renames and removes are considered durable at
  /// the moment they succeed (the POSIX backend fsyncs the directory).
  void DropUnsynced();

 protected:
  struct FileState {
    std::string data;
    size_t synced_size = 0;
  };

  mutable Mutex mutex_;
  std::map<std::string, FileState> files_ TTRA_GUARDED_BY(mutex_);
  std::vector<std::string> dirs_ TTRA_GUARDED_BY(mutex_);
};

/// Seeded, probabilistic fault schedule for FaultInjectionEnv. Every rate
/// is a per-operation Bernoulli probability; drawing from a fixed seed
/// makes each schedule reproducible, so a failing torture-test seed
/// replays the exact same failure history.
struct FaultPlanOptions {
  /// Per counted mutating op: probability of starting a transient-EIO
  /// burst. The op fails with kIoError, as do the next `burst - 1`
  /// counted ops (burst drawn uniformly from [1, max_transient_burst]);
  /// then the env heals — the schedule a bounded retry loop rides out.
  double transient_error_rate = 0.0;
  uint32_t max_transient_burst = 3;
  /// Per Append: probability the write tears — a prefix of the data
  /// lands, kIoError is returned. Transient: TruncateTo back to the last
  /// good boundary followed by a retry succeeds.
  double torn_append_rate = 0.0;
  /// Per Sync: probability the fsync lies — it reports OK without making
  /// anything durable (the bytes vanish at the next Crash()). Models
  /// firmware that acknowledges flushes it never performed.
  double lying_sync_rate = 0.0;
  /// Per Read: probability one stored byte of the file is flipped before
  /// the read — sticky media damage (bit rot), recorded in damage_log().
  double read_bit_flip_rate = 0.0;
  /// Per Read: probability the stored file loses a random suffix before
  /// the read — sticky partial-media loss, recorded in damage_log().
  double read_truncate_rate = 0.0;
  /// Total bytes the backing store holds across all files; appends that
  /// would exceed it fail with kResourceExhausted (persistent ENOSPC)
  /// until space is freed. 0 = unlimited.
  uint64_t capacity_bytes = 0;
};

/// In-memory backend that injects failures, simulating the whole failure
/// matrix instead of hoping kill -9 or a dying disk lands somewhere
/// interesting. Two mechanisms compose:
///
///  * One-shot faults (InjectFault): fail — or tear — the Nth counted
///    mutating op (Truncate, TruncateTo, Append, Sync, Rename, Remove),
///    then disarm. The crash-sweep primitive: arm n = 1..op_count().
///  * Fault plans (ArmPlan): a seeded probabilistic schedule of transient
///    EIO bursts, torn appends, lying fsyncs, read-path media damage and
///    ENOSPC — see FaultPlanOptions. The torture-test primitive.
///
/// Media damage (bit flips, lost suffixes) is sticky: it mutates the
/// stored bytes, exactly like rot on a platter, and every event is
/// recorded in damage_log() so an oracle can reason about which commits
/// the damage may legally have destroyed.
class FaultInjectionEnv : public InMemoryEnv {
 public:
  enum class FaultMode { kFailOp, kTornAppend };

  /// Arms the fault at the `nth` future counted op; 0 disarms.
  void InjectFault(uint64_t nth, FaultMode mode) {
    MutexLock lock(mutex_);
    fault_at_ = op_count_ + nth;
    mode_ = mode;
    triggered_ = false;
  }

  void ClearFault() {
    MutexLock lock(mutex_);
    fault_at_ = 0;
  }

  /// Arms a seeded probabilistic fault plan (replacing any armed plan).
  /// Composes with InjectFault: the one-shot fault is checked first.
  void ArmPlan(uint64_t seed, const FaultPlanOptions& plan);

  /// Disarms the plan. Sticky media damage already dealt stays.
  void DisarmPlan();

  /// One sticky media-damage event dealt by the plan's read-path faults.
  struct DamageEvent {
    std::string path;
    uint64_t offset = 0;  ///< first damaged byte
    uint64_t bytes = 0;   ///< 1 for a bit flip, suffix length for a cut
  };
  std::vector<DamageEvent> damage_log() const {
    MutexLock lock(mutex_);
    return damage_log_;
  }

  /// Plan bookkeeping, for oracles that must know which fault classes
  /// actually fired on a given seed.
  struct PlanStats {
    uint64_t transient_failures = 0;  ///< ops failed by EIO bursts
    uint64_t torn_appends = 0;
    uint64_t lying_syncs = 0;  ///< syncs acknowledged but not performed
    uint64_t bit_flips = 0;
    uint64_t media_truncations = 0;
    uint64_t enospc_failures = 0;
  };
  PlanStats plan_stats() const {
    MutexLock lock(mutex_);
    return plan_stats_;
  }

  /// Total counted ops so far (use a fault-free run to size the fault
  /// sweep).
  uint64_t op_count() const {
    MutexLock lock(mutex_);
    return op_count_;
  }

  /// True once the armed one-shot fault has fired.
  bool fault_triggered() const {
    MutexLock lock(mutex_);
    return triggered_;
  }

  /// Simulate the crash that follows a fault: disarm everything (a new
  /// process starts with a healthy environment; media damage stays) and
  /// drop unsynced bytes — including bytes a lying fsync claimed durable.
  void Crash() {
    ClearFault();
    DisarmPlan();
    DropUnsynced();
  }

  Status Truncate(const std::string& path) override;
  Status TruncateTo(const std::string& path, uint64_t size) override;
  Status Append(const std::string& path, std::string_view data) override;
  Status Sync(const std::string& path) override;
  Result<std::string> Read(const std::string& path) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;

 private:
  /// Advances the op counter; returns true if this op must fail, storing
  /// the armed mode in `*mode`. Caller must NOT hold mutex_.
  bool NextOpFaults(FaultMode* mode = nullptr) TTRA_EXCLUDES(mutex_);

  /// Plan's read-path faults: possibly deals sticky damage to `path`'s
  /// stored bytes before a Read.
  void MaybeDamageForRead(const std::string& path) TTRA_EXCLUDES(mutex_);

  uint64_t op_count_ TTRA_GUARDED_BY(mutex_) = 0;
  uint64_t fault_at_ TTRA_GUARDED_BY(mutex_) = 0;  // 0 = disarmed
  FaultMode mode_ TTRA_GUARDED_BY(mutex_) = FaultMode::kFailOp;
  bool triggered_ TTRA_GUARDED_BY(mutex_) = false;

  std::optional<Rng> plan_rng_ TTRA_GUARDED_BY(mutex_);  // armed iff set
  FaultPlanOptions plan_ TTRA_GUARDED_BY(mutex_);
  uint32_t transient_remaining_ TTRA_GUARDED_BY(mutex_) = 0;
  std::vector<DamageEvent> damage_log_ TTRA_GUARDED_BY(mutex_);
  PlanStats plan_stats_ TTRA_GUARDED_BY(mutex_);
};

}  // namespace ttra

#endif  // TTRA_STORAGE_ENV_H_
