#ifndef TTRA_STORAGE_SERIALIZE_H_
#define TTRA_STORAGE_SERIALIZE_H_

#include <string>
#include <utility>
#include <vector>

#include "storage/state_log.h"

namespace ttra {

/// Binary codec for the semantic-domain value types. The on-disk form of a
/// relation is its *logical* state sequence, framed
/// with a magic number, version, and a 64-bit FNV-1a checksum; decoding
/// verifies the frame and fails with kCorruption instead of misreading.

void EncodeValue(const Value& value, std::string& out);
void EncodeTuple(const Tuple& tuple, std::string& out);
void EncodeSchema(const Schema& schema, std::string& out);
void EncodeSnapshotState(const SnapshotState& state, std::string& out);
void EncodeTemporalElement(const TemporalElement& element, std::string& out);
void EncodeHistoricalState(const HistoricalState& state, std::string& out);

/// Sequential reader over an encoded buffer; every accessor checks bounds
/// and returns kCorruption on truncated or malformed input.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadByte();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Reads an element count. Every encoded element takes at least one
  /// byte, so a count larger than remaining() is corrupt; rejecting it here
  /// keeps a damaged count from reaching reserve() or an allocation.
  Result<uint64_t> ReadCount();

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Result<Value> DecodeValue(ByteReader& reader);
Result<Tuple> DecodeTuple(ByteReader& reader);
Result<Schema> DecodeSchema(ByteReader& reader);
Result<SnapshotState> DecodeSnapshotState(ByteReader& reader);
Result<TemporalElement> DecodeTemporalElement(ByteReader& reader);
Result<HistoricalState> DecodeHistoricalState(ByteReader& reader);

/// Framed encoding of a relation's full logical state sequence.
template <typename StateT>
std::string EncodeStateSequence(
    const std::vector<std::pair<StateT, TransactionNumber>>& sequence);

/// Inverse of EncodeStateSequence; checksum/magic failures → kCorruption.
template <typename StateT>
Result<std::vector<std::pair<StateT, TransactionNumber>>> DecodeStateSequence(
    std::string_view data);

/// Extracts the logical sequence from a log (one FINDSTATE per pair).
template <typename StateT>
std::vector<std::pair<StateT, TransactionNumber>> MaterializeSequence(
    const StateLog<StateT>& log);

}  // namespace ttra

#endif  // TTRA_STORAGE_SERIALIZE_H_
