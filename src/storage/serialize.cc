#include "storage/serialize.h"

#include <cstring>

#include "util/hash.h"

namespace ttra {

namespace {

constexpr uint64_t kMagic = 0x7474726153455131ULL;  // "ttraSEQ1"
constexpr uint8_t kFormatVersion = 1;

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(int64_t v, std::string& out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutDouble(double v, std::string& out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

void PutString(std::string_view s, std::string& out) {
  PutU64(s.size(), out);
  out.append(s);
}

}  // namespace

void EncodeValue(const Value& value, std::string& out) {
  out.push_back(static_cast<char>(value.type()));
  switch (value.type()) {
    case ValueType::kInt:
      PutI64(value.AsInt(), out);
      break;
    case ValueType::kDouble:
      PutDouble(value.AsDouble(), out);
      break;
    case ValueType::kString:
      PutString(value.AsString(), out);
      break;
    case ValueType::kBool:
      out.push_back(value.AsBool() ? 1 : 0);
      break;
    case ValueType::kUserTime:
      PutI64(value.AsTime().ticks, out);
      break;
  }
}

void EncodeTuple(const Tuple& tuple, std::string& out) {
  PutU64(tuple.size(), out);
  for (const Value& v : tuple.values()) EncodeValue(v, out);
}

void EncodeSchema(const Schema& schema, std::string& out) {
  PutU64(schema.size(), out);
  for (const Attribute& attr : schema.attributes()) {
    PutString(attr.name, out);
    out.push_back(static_cast<char>(attr.type));
  }
}

void EncodeSnapshotState(const SnapshotState& state, std::string& out) {
  EncodeSchema(state.schema(), out);
  PutU64(state.size(), out);
  for (const Tuple& t : state.tuples()) EncodeTuple(t, out);
}

void EncodeTemporalElement(const TemporalElement& element, std::string& out) {
  PutU64(element.intervals().size(), out);
  for (const Interval& i : element.intervals()) {
    PutI64(i.begin, out);
    PutI64(i.end, out);
  }
}

void EncodeHistoricalState(const HistoricalState& state, std::string& out) {
  EncodeSchema(state.schema(), out);
  PutU64(state.size(), out);
  for (const HistoricalTuple& ht : state.tuples()) {
    EncodeTuple(ht.tuple, out);
    EncodeTemporalElement(ht.valid, out);
  }
}

Result<uint8_t> ByteReader::ReadByte() {
  if (pos_ >= data_.size()) return CorruptionError("truncated input (byte)");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint64_t> ByteReader::ReadU64() {
  if (pos_ + 8 > data_.size()) return CorruptionError("truncated input (u64)");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  TTRA_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::ReadDouble() {
  TTRA_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> ByteReader::ReadString() {
  TTRA_ASSIGN_OR_RETURN(uint64_t length, ReadU64());
  if (length > remaining()) {
    return CorruptionError("truncated input (string of length " +
                           std::to_string(length) + ")");
  }
  std::string s(data_.substr(pos_, length));
  pos_ += length;
  return s;
}

Result<uint64_t> ByteReader::ReadCount() {
  TTRA_ASSIGN_OR_RETURN(uint64_t count, ReadU64());
  if (count > remaining()) {
    return CorruptionError("element count " + std::to_string(count) +
                           " exceeds the " + std::to_string(remaining()) +
                           " bytes left");
  }
  return count;
}

Result<Value> DecodeValue(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadByte());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kInt: {
      TTRA_ASSIGN_OR_RETURN(int64_t v, reader.ReadI64());
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      TTRA_ASSIGN_OR_RETURN(double v, reader.ReadDouble());
      return Value::Double(v);
    }
    case ValueType::kString: {
      TTRA_ASSIGN_OR_RETURN(std::string v, reader.ReadString());
      return Value::String(std::move(v));
    }
    case ValueType::kBool: {
      TTRA_ASSIGN_OR_RETURN(uint8_t v, reader.ReadByte());
      if (v > 1) return CorruptionError("invalid bool payload");
      return Value::Bool(v != 0);
    }
    case ValueType::kUserTime: {
      TTRA_ASSIGN_OR_RETURN(int64_t v, reader.ReadI64());
      return Value::Time(v);
    }
  }
  return CorruptionError("invalid value tag " + std::to_string(tag));
}

Result<Tuple> DecodeTuple(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  Tuple::Builder builder(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Value v, DecodeValue(reader));
    builder.Add(std::move(v));
  }
  return std::move(builder).Build();
}

Result<Schema> DecodeSchema(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<Attribute> attrs;
  attrs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    TTRA_ASSIGN_OR_RETURN(uint8_t type, reader.ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kUserTime)) {
      return CorruptionError("invalid attribute type tag");
    }
    attrs.push_back(Attribute{std::move(name), static_cast<ValueType>(type)});
  }
  auto schema = Schema::Make(std::move(attrs));
  if (!schema.ok()) {
    return CorruptionError("invalid schema: " + schema.status().message());
  }
  return std::move(schema).value();
}

Result<SnapshotState> DecodeSnapshotState(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(reader));
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<Tuple> tuples;
  tuples.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(reader));
    tuples.push_back(std::move(t));
  }
  auto state = SnapshotState::Make(std::move(schema), std::move(tuples));
  if (!state.ok()) {
    return CorruptionError("invalid snapshot state: " +
                           state.status().message());
  }
  return std::move(state).value();
}

Result<TemporalElement> DecodeTemporalElement(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<Interval> intervals;
  intervals.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(int64_t begin, reader.ReadI64());
    TTRA_ASSIGN_OR_RETURN(int64_t end, reader.ReadI64());
    intervals.push_back(Interval::Make(begin, end));
  }
  return TemporalElement::Of(std::move(intervals));
}

Result<HistoricalState> DecodeHistoricalState(ByteReader& reader) {
  TTRA_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(reader));
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<HistoricalTuple> tuples;
  tuples.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(reader));
    TTRA_ASSIGN_OR_RETURN(TemporalElement e, DecodeTemporalElement(reader));
    tuples.push_back(HistoricalTuple{std::move(t), std::move(e)});
  }
  auto state = HistoricalState::Make(std::move(schema), std::move(tuples));
  if (!state.ok()) {
    return CorruptionError("invalid historical state: " +
                           state.status().message());
  }
  return std::move(state).value();
}

namespace {

void EncodeState(const SnapshotState& state, std::string& out) {
  EncodeSnapshotState(state, out);
}
void EncodeState(const HistoricalState& state, std::string& out) {
  EncodeHistoricalState(state, out);
}

template <typename StateT>
Result<StateT> DecodeState(ByteReader& reader);

template <>
Result<SnapshotState> DecodeState<SnapshotState>(ByteReader& reader) {
  return DecodeSnapshotState(reader);
}
template <>
Result<HistoricalState> DecodeState<HistoricalState>(ByteReader& reader) {
  return DecodeHistoricalState(reader);
}

}  // namespace

template <typename StateT>
std::string EncodeStateSequence(
    const std::vector<std::pair<StateT, TransactionNumber>>& sequence) {
  std::string payload;
  PutU64(sequence.size(), payload);
  for (const auto& [state, txn] : sequence) {
    PutU64(txn, payload);
    EncodeState(state, payload);
  }
  std::string out;
  PutU64(kMagic, out);
  out.push_back(static_cast<char>(kFormatVersion));
  PutU64(Fnv1a(payload), out);
  PutU64(payload.size(), out);
  out += payload;
  return out;
}

template <typename StateT>
Result<std::vector<std::pair<StateT, TransactionNumber>>> DecodeStateSequence(
    std::string_view data) {
  ByteReader header(data);
  TTRA_ASSIGN_OR_RETURN(uint64_t magic, header.ReadU64());
  if (magic != kMagic) return CorruptionError("bad magic number");
  TTRA_ASSIGN_OR_RETURN(uint8_t version, header.ReadByte());
  if (version != kFormatVersion) {
    return CorruptionError("unsupported format version " +
                           std::to_string(version));
  }
  TTRA_ASSIGN_OR_RETURN(uint64_t checksum, header.ReadU64());
  TTRA_ASSIGN_OR_RETURN(uint64_t payload_size, header.ReadU64());
  if (header.position() + payload_size != data.size()) {
    return CorruptionError("payload size mismatch");
  }
  std::string_view payload = data.substr(header.position());
  if (Fnv1a(payload) != checksum) return CorruptionError("checksum mismatch");

  ByteReader reader(payload);
  TTRA_ASSIGN_OR_RETURN(uint64_t count, reader.ReadCount());
  std::vector<std::pair<StateT, TransactionNumber>> sequence;
  sequence.reserve(count);
  TransactionNumber last_txn = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TTRA_ASSIGN_OR_RETURN(uint64_t txn, reader.ReadU64());
    if (i > 0 && txn <= last_txn) {
      return CorruptionError("non-increasing transaction numbers");
    }
    last_txn = txn;
    TTRA_ASSIGN_OR_RETURN(StateT state, DecodeState<StateT>(reader));
    sequence.emplace_back(std::move(state), txn);
  }
  if (!reader.AtEnd()) return CorruptionError("trailing bytes after payload");
  return sequence;
}

template <typename StateT>
std::vector<std::pair<StateT, TransactionNumber>> MaterializeSequence(
    const StateLog<StateT>& log) {
  std::vector<std::pair<StateT, TransactionNumber>> sequence;
  sequence.reserve(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    const TransactionNumber txn = log.TxnAt(i);
    sequence.emplace_back(*log.StateAt(txn), txn);
  }
  return sequence;
}

// Explicit instantiations for the two state kinds.
template std::string EncodeStateSequence<SnapshotState>(
    const std::vector<std::pair<SnapshotState, TransactionNumber>>&);
template std::string EncodeStateSequence<HistoricalState>(
    const std::vector<std::pair<HistoricalState, TransactionNumber>>&);
template Result<std::vector<std::pair<SnapshotState, TransactionNumber>>>
DecodeStateSequence<SnapshotState>(std::string_view);
template Result<std::vector<std::pair<HistoricalState, TransactionNumber>>>
DecodeStateSequence<HistoricalState>(std::string_view);
template std::vector<std::pair<SnapshotState, TransactionNumber>>
MaterializeSequence<SnapshotState>(const StateLog<SnapshotState>&);
template std::vector<std::pair<HistoricalState, TransactionNumber>>
MaterializeSequence<HistoricalState>(const StateLog<HistoricalState>&);

}  // namespace ttra
