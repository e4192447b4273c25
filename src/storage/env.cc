#include "storage/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

namespace ttra {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return IoError(op + " failed for " + path + ": " + std::strerror(errno));
}

/// Directory part of `path` ("" if none).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Errno("open for fsync", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync", path);
  return Status::Ok();
}

}  // namespace

// --- PosixEnv --------------------------------------------------------------

namespace {

/// Zero bytes a pre-zeroed log keeps written ahead of its end.
constexpr uint64_t kZeroExtent = 1 << 20;
constexpr size_t kZeroPageSize = 4096;
alignas(kZeroPageSize) const char kZeroPage[kZeroPageSize] = {};

bool IsPrezeroed(const std::string& path) {
  constexpr std::string_view kSuffix = ".wal";
  return path.size() >= kSuffix.size() &&
         path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

/// Writes zeros over [from, to) of `fd`, every iovec pointing at the one
/// static zero page.
Status PwriteZeros(int fd, uint64_t from, uint64_t to,
                   const std::string& path) {
  constexpr int kMaxIov = 256;
  iovec iov[kMaxIov];
  while (from < to) {
    int count = 0;
    for (uint64_t at = from; at < to && count < kMaxIov; ++count) {
      const uint64_t len =
          std::min<uint64_t>(kZeroPageSize - at % kZeroPageSize, to - at);
      iov[count].iov_base = const_cast<char*>(kZeroPage);
      iov[count].iov_len = static_cast<size_t>(len);
      at += len;
    }
    const ssize_t n = ::pwritev(fd, iov, count, static_cast<off_t>(from));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwritev", path);
    }
    from += static_cast<uint64_t>(n);
  }
  return Status::Ok();
}

/// Flushes `fd` (a dup the caller owns and closes here): data only for a
/// pre-zeroed log, data and metadata otherwise.
Status FlushAndClose(int fd, bool data_only, const std::string& path) {
  const int rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    errno = err;
    return Errno(data_only ? "fdatasync" : "fsync", path);
  }
  return Status::Ok();
}

}  // namespace

PosixEnv::~PosixEnv() {
  for (auto& [path, file] : files_) ::close(file.fd);
}

Result<PosixEnv::OpenFile*> PosixEnv::OpenLocked(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) return &it->second;
  OpenFile file;
  file.prezeroed = IsPrezeroed(path);
  file.fd = ::open(path.c_str(),
                   O_CREAT | O_WRONLY | (file.prezeroed ? 0 : O_APPEND), 0644);
  if (file.fd < 0) return Errno("open", path);
  if (file.prezeroed) {
    // An existing log is taken at its physical size: a caller reopening a
    // log cut short by a crash cuts it to its valid size first.
    struct stat st;
    if (::fstat(file.fd, &st) != 0) {
      const Status status = Errno("fstat", path);
      ::close(file.fd);
      return status;
    }
    file.end = file.zeroed = static_cast<uint64_t>(st.st_size);
  }
  return &files_.emplace(path, file).first->second;
}

void PosixEnv::DropFdLocked(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) {
    ::close(it->second.fd);
    files_.erase(it);
  }
}

Status PosixEnv::Truncate(const std::string& path) {
  MutexLock lock(mutex_);
  DropFdLocked(path);
  OpenFile file;
  file.prezeroed = IsPrezeroed(path);
  // An O_WRONLY fd still appends correctly: its offset is at 0.
  file.fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (file.fd < 0) return Errno("truncate", path);
  files_.emplace(path, file);
  return Status::Ok();
}

Status PosixEnv::TruncateTo(const std::string& path, uint64_t size) {
  {
    MutexLock lock(mutex_);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
    uint64_t end = static_cast<uint64_t>(st.st_size);
    auto it = files_.find(path);
    if (it != files_.end() && it->second.prezeroed) {
      end = std::min(end, it->second.end);
    }
    if (end < size) {
      return InvalidArgumentError("truncate-to beyond end of " + path);
    }
    // Cut under the lock, so no append slips in between, and drop the
    // descriptor: the next open takes the size again, and a pre-zeroed
    // log ends at the cut.
    DropFdLocked(path);
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("truncate", path);
    }
  }
  // Make the new length durable before anyone appends after the cut.
  return FsyncPath(path, O_WRONLY);
}

Status PosixEnv::Append(const std::string& path, std::string_view data) {
  int fill_fd = -1;
  {
    MutexLock lock(mutex_);
    TTRA_ASSIGN_OR_RETURN(OpenFile * file, OpenLocked(path));
    size_t written = 0;
    while (written < data.size()) {
      const ssize_t n =
          file->prezeroed
              ? ::pwrite(file->fd, data.data() + written,
                         data.size() - written,
                         static_cast<off_t>(file->end + written))
              : ::write(file->fd, data.data() + written,
                        data.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status status = Errno("write", path);
        file->end += written;  // what landed stays, as with O_APPEND
        return status;
      }
      written += static_cast<size_t>(n);
    }
    if (!file->prezeroed) return Status::Ok();
    // A log's first append, its header, is never followed by zeros, so
    // creating a log writes none.
    const bool header = file->end == 0;
    file->end += written;
    if (header || file->end <= file->zeroed) {
      file->zeroed = std::max(file->zeroed, file->end);
      return Status::Ok();
    }
    // The record ran past the zeroed region: zero-write the next extent
    // and make the new size and blocks durable now, so the commits that
    // land in it sync data only.
    const uint64_t target =
        (file->end + kZeroPageSize - 1) / kZeroPageSize * kZeroPageSize +
        kZeroExtent;
    TTRA_RETURN_IF_ERROR(PwriteZeros(file->fd, file->end, target, path));
    file->zeroed = target;
    fill_fd = ::dup(file->fd);
    if (fill_fd < 0) return Errno("dup", path);
  }
  return FlushAndClose(fill_fd, /*data_only=*/true, path);
}

Status PosixEnv::Sync(const std::string& path) {
  // Flush a dup outside the lock: one file's fsync must not hold up the
  // appends and syncs of every other file, and a concurrent Truncate or
  // Remove may close the cached descriptor meanwhile.
  int fd = -1;
  bool data_only = false;
  {
    MutexLock lock(mutex_);
    TTRA_ASSIGN_OR_RETURN(OpenFile * file, OpenLocked(path));
    fd = ::dup(file->fd);
    if (fd < 0) return Errno("dup", path);
    data_only = file->prezeroed;
  }
  return FlushAndClose(fd, data_only, path);
}

Result<std::string> PosixEnv::Read(const std::string& path) const {
  uint64_t logical_end = UINT64_MAX;
  {
    MutexLock lock(mutex_);
    auto it = files_.find(path);
    if (it != files_.end() && it->second.prezeroed) {
      logical_end = it->second.end;
    }
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open for read", path);
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  // A pre-zeroed log this Env writes ends where its records end.
  if (out.size() > logical_end) out.resize(logical_end);
  return out;
}

Status PosixEnv::Rename(const std::string& from, const std::string& to) {
  {
    MutexLock lock(mutex_);
    DropFdLocked(from);
    DropFdLocked(to);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Errno("rename", from + " -> " + to);
  }
  // The rename is only durable once the directory entry is on disk.
  return FsyncPath(DirName(to), O_RDONLY | O_DIRECTORY);
}

Status PosixEnv::Remove(const std::string& path) {
  {
    MutexLock lock(mutex_);
    DropFdLocked(path);
  }
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::Ok();
}

Result<std::vector<std::string>> PosixEnv::List(const std::string& dir) const {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status PosixEnv::CreateDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", dir);
  }
  return FsyncPath(DirName(dir), O_RDONLY | O_DIRECTORY);
}

bool PosixEnv::Exists(const std::string& path) const {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// --- InMemoryEnv -----------------------------------------------------------

Status InMemoryEnv::Truncate(const std::string& path) {
  MutexLock lock(mutex_);
  files_[path] = FileState{};
  return Status::Ok();
}

Status InMemoryEnv::TruncateTo(const std::string& path, uint64_t size) {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return IoError("no such file: " + path);
  FileState& file = it->second;
  if (size > file.data.size()) {
    return InvalidArgumentError("truncate-to beyond end of " + path);
  }
  file.data.resize(size);
  file.synced_size = std::min<size_t>(file.synced_size, size);
  return Status::Ok();
}

Status InMemoryEnv::Append(const std::string& path, std::string_view data) {
  MutexLock lock(mutex_);
  files_[path].data.append(data);
  return Status::Ok();
}

Status InMemoryEnv::Sync(const std::string& path) {
  MutexLock lock(mutex_);
  FileState& file = files_[path];
  file.synced_size = file.data.size();
  return Status::Ok();
}

Result<std::string> InMemoryEnv::Read(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return IoError("no such file: " + path);
  return it->second.data;
}

Status InMemoryEnv::Rename(const std::string& from, const std::string& to) {
  MutexLock lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return IoError("no such file: " + from);
  FileState moved = std::move(it->second);
  // Rename is modeled as durable (the POSIX backend fsyncs the directory),
  // so the moved content survives a crash in full.
  moved.synced_size = moved.data.size();
  files_.erase(it);
  files_[to] = std::move(moved);
  return Status::Ok();
}

Status InMemoryEnv::Remove(const std::string& path) {
  MutexLock lock(mutex_);
  if (files_.erase(path) == 0) return IoError("no such file: " + path);
  return Status::Ok();
}

Result<std::vector<std::string>> InMemoryEnv::List(
    const std::string& dir) const {
  MutexLock lock(mutex_);
  const std::string prefix = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  std::vector<std::string> names;
  for (const auto& [path, file] : files_) {
    if (path.rfind(prefix, 0) == 0) {
      const std::string rest = path.substr(prefix.size());
      if (rest.find('/') == std::string::npos) names.push_back(rest);
    }
  }
  return names;
}

Status InMemoryEnv::CreateDir(const std::string& dir) {
  MutexLock lock(mutex_);
  if (std::find(dirs_.begin(), dirs_.end(), dir) == dirs_.end()) {
    dirs_.push_back(dir);
  }
  return Status::Ok();
}

bool InMemoryEnv::Exists(const std::string& path) const {
  MutexLock lock(mutex_);
  return files_.count(path) > 0 ||
         std::find(dirs_.begin(), dirs_.end(), path) != dirs_.end();
}

void InMemoryEnv::DropUnsynced() {
  MutexLock lock(mutex_);
  for (auto& [path, file] : files_) {
    file.data.resize(file.synced_size);
  }
}

// --- FaultInjectionEnv -----------------------------------------------------

void FaultInjectionEnv::ArmPlan(uint64_t seed, const FaultPlanOptions& plan) {
  MutexLock lock(mutex_);
  plan_rng_.emplace(seed);
  plan_ = plan;
  transient_remaining_ = 0;
}

void FaultInjectionEnv::DisarmPlan() {
  MutexLock lock(mutex_);
  plan_rng_.reset();
  transient_remaining_ = 0;
}

bool FaultInjectionEnv::NextOpFaults(FaultMode* mode) {
  MutexLock lock(mutex_);
  ++op_count_;
  if (fault_at_ != 0 && op_count_ >= fault_at_) {
    fault_at_ = 0;  // one-shot
    triggered_ = true;
    if (mode != nullptr) *mode = mode_;
    return true;
  }
  if (plan_rng_.has_value()) {
    if (transient_remaining_ > 0) {
      // Inside an EIO burst: keep failing until it runs out.
      --transient_remaining_;
      ++plan_stats_.transient_failures;
      if (mode != nullptr) *mode = FaultMode::kFailOp;
      return true;
    }
    if (plan_.transient_error_rate > 0.0 &&
        plan_rng_->Bernoulli(plan_.transient_error_rate)) {
      const uint64_t max_burst = std::max<uint32_t>(1, plan_.max_transient_burst);
      transient_remaining_ =
          static_cast<uint32_t>(plan_rng_->Uniform(max_burst));  // burst - 1
      ++plan_stats_.transient_failures;
      if (mode != nullptr) *mode = FaultMode::kFailOp;
      return true;
    }
  }
  return false;
}

void FaultInjectionEnv::MaybeDamageForRead(const std::string& path) {
  MutexLock lock(mutex_);
  if (!plan_rng_.has_value()) return;
  auto it = files_.find(path);
  if (it == files_.end() || it->second.data.empty()) return;
  FileState& file = it->second;
  if (plan_.read_bit_flip_rate > 0.0 &&
      plan_rng_->Bernoulli(plan_.read_bit_flip_rate)) {
    const uint64_t offset = plan_rng_->Uniform(file.data.size());
    file.data[offset] ^= static_cast<char>(1u << plan_rng_->Uniform(8));
    ++plan_stats_.bit_flips;
    damage_log_.push_back(DamageEvent{path, offset, 1});
  }
  if (plan_.read_truncate_rate > 0.0 && !file.data.empty() &&
      plan_rng_->Bernoulli(plan_.read_truncate_rate)) {
    const uint64_t keep = plan_rng_->Uniform(file.data.size());
    const uint64_t lost = file.data.size() - keep;
    file.data.resize(keep);
    file.synced_size = std::min<size_t>(file.synced_size, file.data.size());
    ++plan_stats_.media_truncations;
    damage_log_.push_back(DamageEvent{path, keep, lost});
  }
}

Status FaultInjectionEnv::Truncate(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: truncate " + path);
  return InMemoryEnv::Truncate(path);
}

Status FaultInjectionEnv::TruncateTo(const std::string& path, uint64_t size) {
  if (NextOpFaults()) return IoError("injected fault: truncate-to " + path);
  return InMemoryEnv::TruncateTo(path, size);
}

Status FaultInjectionEnv::Append(const std::string& path,
                                 std::string_view data) {
  FaultMode mode = FaultMode::kFailOp;
  if (NextOpFaults(&mode)) {
    if (mode == FaultMode::kTornAppend && !data.empty()) {
      // Half the record reaches the file: a torn write. The half-append's
      // own status is irrelevant — the op is reported failed regardless.
      InMemoryEnv::Append(path, data.substr(0, data.size() / 2))
          .IgnoreError();
    }
    return IoError("injected fault: append " + path);
  }
  {
    MutexLock lock(mutex_);
    if (plan_rng_.has_value()) {
      if (plan_.capacity_bytes > 0) {
        uint64_t total = 0;
        for (const auto& [p, file] : files_) total += file.data.size();
        if (total + data.size() > plan_.capacity_bytes) {
          ++plan_stats_.enospc_failures;
          return ResourceExhaustedError("no space left on device: " + path);
        }
      }
      if (plan_.torn_append_rate > 0.0 && !data.empty() &&
          plan_rng_->Bernoulli(plan_.torn_append_rate)) {
        // A strict prefix lands; the op still reports failure. TruncateTo
        // back to the pre-append size makes the retry clean.
        const uint64_t landed = plan_rng_->Uniform(data.size());
        files_[path].data.append(data.substr(0, landed));
        ++plan_stats_.torn_appends;
        return IoError("injected torn append: " + path);
      }
    }
  }
  return InMemoryEnv::Append(path, data);
}

Status FaultInjectionEnv::Sync(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: sync " + path);
  {
    MutexLock lock(mutex_);
    if (plan_rng_.has_value() && plan_.lying_sync_rate > 0.0 &&
        plan_rng_->Bernoulli(plan_.lying_sync_rate)) {
      // Report success without advancing synced_size: the bytes evaporate
      // at the next Crash() even though the caller was told they are safe.
      ++plan_stats_.lying_syncs;
      return Status::Ok();
    }
  }
  return InMemoryEnv::Sync(path);
}

Result<std::string> FaultInjectionEnv::Read(const std::string& path) const {
  // Reads are not counted ops (the one-shot crash sweep only walks
  // mutations), but the plan's media damage lands before the bytes are
  // served. Damage mutates stored state, hence the const_cast.
  const_cast<FaultInjectionEnv*>(this)->MaybeDamageForRead(path);
  return InMemoryEnv::Read(path);
}

Status FaultInjectionEnv::Rename(const std::string& from,
                                 const std::string& to) {
  if (NextOpFaults()) return IoError("injected fault: rename " + from);
  return InMemoryEnv::Rename(from, to);
}

Status FaultInjectionEnv::Remove(const std::string& path) {
  if (NextOpFaults()) return IoError("injected fault: remove " + path);
  return InMemoryEnv::Remove(path);
}

}  // namespace ttra
