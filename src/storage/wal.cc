#include "storage/wal.h"

#include "util/hash.h"

namespace ttra {

namespace {

constexpr uint64_t kWalMagic = 0x7474726157414c31ULL;  // "ttraWAL1"
constexpr uint8_t kWalVersion = 1;
constexpr size_t kHeaderSize = 9;
constexpr size_t kRecordHeaderSize = 16;  // u64 length + u64 checksum

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetU64(std::string_view data, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

std::string Header() {
  std::string out;
  PutU64(kWalMagic, out);
  out.push_back(static_cast<char>(kWalVersion));
  return out;
}

}  // namespace

Status WalWriter::Create() {
  TTRA_RETURN_IF_ERROR(env_->Truncate(path_));
  TTRA_RETURN_IF_ERROR(env_->Append(path_, Header()));
  TTRA_RETURN_IF_ERROR(env_->Sync(path_));
  good_size_ = kHeaderSize;
  appended_ = false;
  return Status::Ok();
}

Status WalWriter::OpenForAppend(uint64_t size) {
  if (!env_->Exists(path_)) {
    return IoError("wal does not exist: " + path_);
  }
  // The caller has validated the file with ReadWal, so `size` IS a record
  // boundary — the initial known-good boundary for ResetTail().
  good_size_ = size;
  appended_ = false;
  return Status::Ok();
}

Status WalWriter::ResetTail() {
  TTRA_RETURN_IF_ERROR(env_->TruncateTo(path_, good_size_));
  appended_ = false;
  return Status::Ok();
}

Status WalWriter::TrimTail() {
  return appended_ ? ResetTail() : Status::Ok();
}

namespace {

void FrameRecord(std::string_view payload, std::string& out) {
  PutU64(payload.size(), out);
  PutU64(Fnv1a(payload), out);
  out.append(payload);
}

}  // namespace

Status WalWriter::AddRecord(std::string_view payload) {
  std::string frame;
  frame.reserve(kRecordHeaderSize + payload.size());
  FrameRecord(payload, frame);
  TTRA_RETURN_IF_ERROR(env_->Append(path_, frame));
  stats_.records += 1;
  stats_.appends += 1;
  stats_.bytes_appended += frame.size();
  good_size_ += frame.size();
  appended_ = true;
  return Status::Ok();
}

Status WalWriter::AddRecords(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return Status::Ok();
  size_t total = 0;
  for (const std::string& payload : payloads) {
    total += kRecordHeaderSize + payload.size();
  }
  std::string frames;
  frames.reserve(total);
  for (const std::string& payload : payloads) FrameRecord(payload, frames);
  TTRA_RETURN_IF_ERROR(env_->Append(path_, frames));
  stats_.records += payloads.size();
  stats_.appends += 1;
  stats_.bytes_appended += frames.size();
  good_size_ += frames.size();
  appended_ = true;
  return Status::Ok();
}

Status WalWriter::Sync() {
  TTRA_RETURN_IF_ERROR(env_->Sync(path_));
  stats_.syncs += 1;
  return Status::Ok();
}

std::string_view WalCorruptionCauseName(WalCorruptionCause cause) {
  switch (cause) {
    case WalCorruptionCause::kNone:
      return "none";
    case WalCorruptionCause::kTornFileHeader:
      return "torn-file-header";
    case WalCorruptionCause::kTornRecordHeader:
      return "torn-record-header";
    case WalCorruptionCause::kTornPayload:
      return "torn-payload";
    case WalCorruptionCause::kChecksumMismatch:
      return "checksum-mismatch";
  }
  return "unknown";
}

namespace {

/// Tries to parse one framed record starting at `pos`; returns the frame's
/// total size, or 0 if no valid record starts there. A false positive
/// needs 8 garbage bytes that happen to be a plausible length plus 8 more
/// matching the payload's FNV-1a — ~2^-64, negligible.
size_t TryParseRecord(std::string_view data, size_t pos) {
  if (data.size() - pos < kRecordHeaderSize) return 0;
  const uint64_t length = GetU64(data, pos);
  if (length > data.size() - pos - kRecordHeaderSize) return 0;
  const std::string_view payload = data.substr(pos + kRecordHeaderSize, length);
  if (Fnv1a(payload) != GetU64(data, pos + 8)) return 0;
  return kRecordHeaderSize + length;
}

}  // namespace

Result<WalReadResult> ReadWal(const Env& env, const std::string& path) {
  TTRA_ASSIGN_OR_RETURN(std::string data, env.Read(path));
  WalReadResult result;
  if (data.size() < kHeaderSize) {
    // The header itself never reached disk: an empty (torn-at-birth) log.
    result.torn_tail = !data.empty();
    if (result.torn_tail) result.cause = WalCorruptionCause::kTornFileHeader;
    return result;
  }
  if (GetU64(data, 0) != kWalMagic) {
    return CorruptionError("bad wal magic in " + path);
  }
  if (static_cast<uint8_t>(data[8]) != kWalVersion) {
    return CorruptionError("unsupported wal version in " + path);
  }
  size_t pos = kHeaderSize;
  result.valid_size = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderSize) {
      result.cause = WalCorruptionCause::kTornRecordHeader;
      break;
    }
    const uint64_t length = GetU64(data, pos);
    const uint64_t checksum = GetU64(data, pos + 8);
    if (length > data.size() - pos - kRecordHeaderSize) {
      result.cause = WalCorruptionCause::kTornPayload;
      break;
    }
    const std::string_view payload =
        std::string_view(data).substr(pos + kRecordHeaderSize, length);
    if (Fnv1a(payload) != checksum) {
      result.cause = WalCorruptionCause::kChecksumMismatch;
      break;
    }
    result.records.emplace_back(payload);
    result.record_offsets.push_back(pos);
    pos += kRecordHeaderSize + length;
    result.valid_size = pos;
  }
  if (data.find_first_not_of('\0', result.valid_size) == std::string::npos) {
    // Nothing but zeros after the last record: the clean end.
    result.cause = WalCorruptionCause::kNone;
    result.zero_tail = data.size() - result.valid_size;
    return result;
  }
  result.torn_tail = true;

  result.invalid_offset = result.valid_size;
  result.invalid_record_index = result.records.size();
  // Scan the damaged remainder for a re-synchronizing valid frame. Power
  // loss only ever tears the *tail*, so any intact frame past the hole is
  // proof of mid-log corruption (bit rot, a torn-then-overwritten retry):
  // truncating at valid_size would drop committed records.
  for (size_t p = result.valid_size + 1;
       p + kRecordHeaderSize <= data.size(); ++p) {
    const size_t first = TryParseRecord(data, p);
    if (first == 0) continue;
    result.resync_offset = p;
    size_t q = p;
    while (q < data.size()) {
      const size_t frame = TryParseRecord(data, q);
      if (frame == 0) break;
      ++result.records_after_hole;
      q += frame;
    }
    break;
  }
  return result;
}

namespace {

constexpr std::string_view kShardManifestHeader = "ttra-shards 1\nshards ";

}  // namespace

std::string ShardManifestText(size_t shards) {
  return std::string(kShardManifestHeader) + std::to_string(shards) + "\n";
}

Result<uint32_t> ParseShardManifest(std::string_view text) {
  if (text.substr(0, kShardManifestHeader.size()) != kShardManifestHeader) {
    return CorruptionError("malformed shard manifest");
  }
  uint64_t shards = 0;
  size_t i = kShardManifestHeader.size();
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    shards = shards * 10 + static_cast<uint64_t>(text[i] - '0');
    if (shards > kMaxShards) {
      return CorruptionError("shard count above the limit of " +
                             std::to_string(kMaxShards));
    }
  }
  if (shards == 0 || i == kShardManifestHeader.size() ||
      text.substr(i) != "\n") {
    return CorruptionError("malformed shard count");
  }
  return static_cast<uint32_t>(shards);
}

Result<uint32_t> ReadShardManifest(const Env& env, const std::string& dir) {
  const std::string path = dir + "/" + kShardManifestFile;
  TTRA_ASSIGN_OR_RETURN(std::string text, env.Read(path));
  Result<uint32_t> shards = ParseShardManifest(text);
  if (!shards.ok()) {
    return CorruptionError(path + ": " + shards.status().message());
  }
  return shards;
}

}  // namespace ttra
