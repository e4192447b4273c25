#include <gtest/gtest.h>

#include <algorithm>

#include "rollback/commands.h"
#include "storage/logs.h"
#include "storage/segment.h"
#include "storage/serialize.h"
#include "storage/state_log.h"
#include "workload/generator.h"

namespace ttra {
namespace {

Schema OneCol() { return *Schema::Make({{"n", ValueType::kInt}}); }

SnapshotState Nums(std::vector<int64_t> values) {
  std::vector<Tuple> tuples;
  tuples.reserve(values.size());
  for (int64_t v : values) tuples.push_back(Tuple{Value::Int(v)});
  return *SnapshotState::Make(OneCol(), std::move(tuples));
}

// --- Per-engine unit behaviour ------------------------------------------------

class EngineTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  StateLog<SnapshotState> MakeLog(
      size_t cache_capacity = kDefaultFindStateCacheCapacity) {
    return MakeStateLog<SnapshotState>(GetParam(), /*checkpoint_interval=*/4,
                                       cache_capacity);
  }
};

INSTANTIATE_TEST_SUITE_P(Kinds, EngineTest,
                         ::testing::Values(StorageKind::kFullCopy,
                                           StorageKind::kDelta,
                                           StorageKind::kCheckpoint,
                                           StorageKind::kReverseDelta),
                         [](const auto& info) {
                           switch (info.param) {
                             case StorageKind::kFullCopy:
                               return std::string("FullCopy");
                             case StorageKind::kDelta:
                               return std::string("Delta");
                             case StorageKind::kCheckpoint:
                               return std::string("Checkpoint");
                             case StorageKind::kReverseDelta:
                               return std::string("ReverseDelta");
                           }
                           return std::string("Unknown");
                         });

TEST_P(EngineTest, EmptyLogHasNoStates) {
  auto log = MakeLog();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.StateAt(0), nullptr);
  EXPECT_EQ(log.StateAt(1000), nullptr);
}

TEST_P(EngineTest, AppendAndFindState) {
  auto log = MakeLog();
  ASSERT_TRUE(log.Append(Nums({1}), 2).ok());
  ASSERT_TRUE(log.Append(Nums({1, 2}), 5).ok());
  ASSERT_TRUE(log.Append(Nums({2}), 9).ok());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.StateAt(1), nullptr);
  EXPECT_EQ(*log.StateAt(2), Nums({1}));
  EXPECT_EQ(*log.StateAt(4), Nums({1}));
  EXPECT_EQ(*log.StateAt(5), Nums({1, 2}));
  EXPECT_EQ(*log.StateAt(8), Nums({1, 2}));
  EXPECT_EQ(*log.StateAt(9), Nums({2}));
  EXPECT_EQ(*log.StateAt(UINT64_MAX), Nums({2}));
}

TEST_P(EngineTest, AppendRejectsNonIncreasingTxn) {
  auto log = MakeLog();
  ASSERT_TRUE(log.Append(Nums({1}), 5).ok());
  EXPECT_FALSE(log.Append(Nums({2}), 5).ok());
  EXPECT_FALSE(log.Append(Nums({2}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
}

TEST_P(EngineTest, ReplaceLastKeepsSingleState) {
  auto log = MakeLog();
  ASSERT_TRUE(log.ReplaceLast(Nums({1}), 2).ok());
  ASSERT_TRUE(log.ReplaceLast(Nums({7}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(*log.StateAt(3), Nums({7}));
  EXPECT_EQ(log.TxnAt(0), 3u);
}

TEST_P(EngineTest, CloneIsDeep) {
  auto log = MakeLog();
  ASSERT_TRUE(log.Append(Nums({1}), 2).ok());
  auto copy = log;
  ASSERT_TRUE(copy.Append(Nums({1, 2}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST_P(EngineTest, HandlesSchemeChangeViaRebase) {
  auto log = MakeLog();
  ASSERT_TRUE(log.Append(Nums({1, 2}), 2).ok());
  Schema wider = *Schema::Make({{"n", ValueType::kInt},
                                {"s", ValueType::kString}});
  SnapshotState wide = *SnapshotState::Make(
      wider, {Tuple{Value::Int(1), Value::String("x")}});
  ASSERT_TRUE(log.Append(wide, 3).ok());
  EXPECT_EQ(*log.StateAt(2), Nums({1, 2}));
  EXPECT_EQ(*log.StateAt(3), wide);
}

TEST_P(EngineTest, RepeatedFindStateIsStableAndCached) {
  auto cached = MakeLog(/*cache_capacity=*/4);
  auto uncached = MakeLog(/*cache_capacity=*/0);
  workload::Generator gen(11);
  SnapshotState state = gen.RandomState(OneCol(), 12);
  for (TransactionNumber txn = 2; txn <= 40; txn += 2) {
    ASSERT_TRUE(cached.Append(state, txn).ok());
    ASSERT_TRUE(uncached.Append(state, txn).ok());
    state = gen.MutateState(state, 0.4);
  }
  // Every probe agrees with the cache disabled, repeatedly (the second
  // probe of each txn exercises the cache hit path).
  for (int round = 0; round < 3; ++round) {
    for (TransactionNumber probe = 0; probe <= 42; ++probe) {
      auto a = cached.StateAt(probe);
      auto b = uncached.StateAt(probe);
      ASSERT_EQ(a != nullptr, b != nullptr) << "txn " << probe;
      if (a != nullptr) {
        EXPECT_EQ(*a, *b) << "txn " << probe;
      }
    }
  }
  // Repeated probes of the same transaction share one reconstruction.
  auto first = cached.StateAt(20);
  auto second = cached.StateAt(20);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
}

TEST_P(EngineTest, CacheInvalidatedByAppendAndReplaceLast) {
  auto log = MakeLog(/*cache_capacity=*/4);
  ASSERT_TRUE(log.Append(Nums({1}), 2).ok());
  ASSERT_TRUE(log.Append(Nums({1, 2}), 4).ok());
  EXPECT_EQ(*log.StateAt(2), Nums({1}));  // populate the cache
  EXPECT_EQ(*log.StateAt(4), Nums({1, 2}));
  ASSERT_TRUE(log.Append(Nums({3}), 6).ok());
  EXPECT_EQ(*log.StateAt(2), Nums({1}));
  EXPECT_EQ(*log.StateAt(4), Nums({1, 2}));
  EXPECT_EQ(*log.StateAt(6), Nums({3}));
  ASSERT_TRUE(log.ReplaceLast(Nums({9}), 7).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.StateAt(6), nullptr);
  EXPECT_EQ(*log.StateAt(7), Nums({9}));
}

// --- Engine equivalence under random command streams (experiment E3) ----------

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 12));

TEST_P(EngineEquivalenceTest, AllEnginesAgreeOnEveryTransaction) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  auto full = MakeStateLog<SnapshotState>(StorageKind::kFullCopy);
  auto delta = MakeStateLog<SnapshotState>(StorageKind::kDelta);
  auto ckpt = MakeStateLog<SnapshotState>(StorageKind::kCheckpoint, 5);
  auto rev = MakeStateLog<SnapshotState>(StorageKind::kReverseDelta);

  SnapshotState state = gen.RandomState(schema, 25);
  TransactionNumber txn = 1;
  std::vector<TransactionNumber> txns;
  for (int i = 0; i < 40; ++i) {
    txn += 1 + gen.rng().Uniform(3);  // gaps in transaction numbers
    ASSERT_TRUE(full.Append(state, txn).ok());
    ASSERT_TRUE(delta.Append(state, txn).ok());
    ASSERT_TRUE(ckpt.Append(state, txn).ok());
    ASSERT_TRUE(rev.Append(state, txn).ok());
    txns.push_back(txn);
    state = gen.MutateState(state, 0.35);
  }
  // Probe every recorded txn, gaps, and out-of-range values.
  for (TransactionNumber probe = 0; probe <= txn + 2; ++probe) {
    auto a = full.StateAt(probe);
    auto b = delta.StateAt(probe);
    auto c = ckpt.StateAt(probe);
    auto d = rev.StateAt(probe);
    EXPECT_EQ(a != nullptr, b != nullptr);
    EXPECT_EQ(a != nullptr, c != nullptr);
    EXPECT_EQ(a != nullptr, d != nullptr);
    if (a != nullptr) {
      EXPECT_EQ(*a, *b) << "delta diverged at txn " << probe;
      EXPECT_EQ(*a, *c) << "checkpoint diverged at txn " << probe;
      EXPECT_EQ(*a, *d) << "reverse-delta diverged at txn " << probe;
    }
  }
}

TEST_P(EngineEquivalenceTest, HistoricalEnginesAgree) {
  workload::Generator gen(GetParam() + 777);
  const Schema schema = gen.RandomSchema();
  auto full = MakeStateLog<HistoricalState>(StorageKind::kFullCopy);
  auto delta = MakeStateLog<HistoricalState>(StorageKind::kDelta);
  auto ckpt = MakeStateLog<HistoricalState>(StorageKind::kCheckpoint, 3);

  HistoricalState state = gen.RandomHistoricalState(schema, 15);
  TransactionNumber txn = 1;
  for (int i = 0; i < 25; ++i) {
    txn += 1 + gen.rng().Uniform(2);
    ASSERT_TRUE(full.Append(state, txn).ok());
    ASSERT_TRUE(delta.Append(state, txn).ok());
    ASSERT_TRUE(ckpt.Append(state, txn).ok());
    state = gen.MutateState(state, 0.3);
  }
  for (TransactionNumber probe = 0; probe <= txn + 1; ++probe) {
    auto a = full.StateAt(probe);
    auto b = delta.StateAt(probe);
    auto c = ckpt.StateAt(probe);
    ASSERT_EQ(a != nullptr, b != nullptr);
    ASSERT_EQ(a != nullptr, c != nullptr);
    if (a != nullptr) {
      EXPECT_EQ(*a, *b);
      EXPECT_EQ(*a, *c);
    }
  }
}

TEST_P(EngineEquivalenceTest, DatabasesWithDifferentEnginesAgree) {
  workload::Generator gen(GetParam() + 31);
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 30,
                                          20, 0.3);
  Database full_db(DatabaseOptions{StorageKind::kFullCopy, 16});
  Database delta_db(DatabaseOptions{StorageKind::kDelta, 16});
  Database ckpt_db(DatabaseOptions{StorageKind::kCheckpoint, 4});
  ASSERT_TRUE(ApplySentence(full_db, commands).ok());
  ASSERT_TRUE(ApplySentence(delta_db, commands).ok());
  ASSERT_TRUE(ApplySentence(ckpt_db, commands).ok());
  for (TransactionNumber probe = 0; probe <= full_db.transaction_number() + 1;
       ++probe) {
    auto a = full_db.Rollback("r", probe);
    auto b = delta_db.Rollback("r", probe);
    auto c = ckpt_db.Rollback("r", probe);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
  }
}

TEST_P(EngineEquivalenceTest, DeltaUsesLessSpaceOnSmallChanges) {
  workload::Generator gen(GetParam() + 1234);
  const Schema schema = gen.RandomSchema(3);
  auto full = MakeStateLog<SnapshotState>(StorageKind::kFullCopy);
  auto delta = MakeStateLog<SnapshotState>(StorageKind::kDelta);
  SnapshotState state = gen.RandomState(schema, 200);
  TransactionNumber txn = 1;
  for (int i = 0; i < 30; ++i) {
    ++txn;
    ASSERT_TRUE(full.Append(state, txn).ok());
    ASSERT_TRUE(delta.Append(state, txn).ok());
    state = gen.MutateState(state, 0.02);  // 2% churn
  }
  // The paper's storage argument: full copies blow up, deltas do not.
  EXPECT_LT(delta.ApproxBytes(), full.ApproxBytes() / 4);
}

// --- Serialization -----------------------------------------------------------

TEST(SerializeTest, ValueRoundTrip) {
  const std::vector<Value> values = {
      Value::Int(-42),     Value::Double(3.25), Value::String("hi\nthere"),
      Value::Bool(true),   Value::Bool(false),  Value::Time(-7),
      Value::String(""),
  };
  for (const Value& v : values) {
    std::string buf;
    EncodeValue(v, buf);
    ByteReader reader(buf);
    auto decoded = DecodeValue(reader);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(*decoded, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(SerializeTest, SnapshotStateRoundTrip) {
  workload::Generator gen(5);
  const Schema schema = gen.RandomSchema();
  SnapshotState state = gen.RandomState(schema, 30);
  std::string buf;
  EncodeSnapshotState(state, buf);
  ByteReader reader(buf);
  auto decoded = DecodeSnapshotState(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, state);
}

TEST(SerializeTest, HistoricalStateRoundTrip) {
  workload::Generator gen(6);
  const Schema schema = gen.RandomSchema();
  HistoricalState state = gen.RandomHistoricalState(schema, 20);
  std::string buf;
  EncodeHistoricalState(state, buf);
  ByteReader reader(buf);
  auto decoded = DecodeHistoricalState(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, state);
}

TEST(SerializeTest, SequenceRoundTripAcrossEngines) {
  workload::Generator gen(7);
  const Schema schema = gen.RandomSchema();
  auto log = MakeStateLog<SnapshotState>(StorageKind::kDelta);
  SnapshotState state = gen.RandomState(schema, 20);
  for (TransactionNumber txn = 2; txn < 22; txn += 2) {
    ASSERT_TRUE(log.Append(state, txn).ok());
    state = gen.MutateState(state, 0.3);
  }
  auto sequence = MaterializeSequence(log);
  std::string encoded = EncodeStateSequence(sequence);
  auto decoded = DecodeStateSequence<SnapshotState>(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), sequence.size());
  for (size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ((*decoded)[i], sequence[i]);
  }
  // Rebuild into a different engine and verify FINDSTATE agreement.
  auto rebuilt = RebuildLog(*decoded, StorageKind::kCheckpoint, 3);
  ASSERT_TRUE(rebuilt.ok());
  for (TransactionNumber probe = 0; probe < 25; ++probe) {
    auto a = log.StateAt(probe);
    auto b = rebuilt->StateAt(probe);
    ASSERT_EQ(a != nullptr, b != nullptr);
    if (a != nullptr) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(SerializeTest, DetectsCorruptionEverywhere) {
  workload::Generator gen(8);
  const Schema schema = gen.RandomSchema(2);
  std::vector<std::pair<SnapshotState, TransactionNumber>> sequence = {
      {gen.RandomState(schema, 5), 2},
      {gen.RandomState(schema, 6), 4},
  };
  const std::string good = EncodeStateSequence(sequence);
  ASSERT_TRUE(DecodeStateSequence<SnapshotState>(good).ok());

  // Flip one byte at a time across the whole frame: decoding must either
  // fail cleanly or (never) succeed with different data — it must not
  // crash or misread silently.
  int failures = 0;
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    auto decoded = DecodeStateSequence<SnapshotState>(bad);
    if (!decoded.ok()) {
      ++failures;
    } else {
      // A successful decode of a corrupted frame must match the original
      // (the flipped byte was in a don't-care position — none exist in
      // this format, so this should not happen).
      ADD_FAILURE() << "corrupted byte " << i << " decoded successfully";
    }
  }
  EXPECT_EQ(failures, static_cast<int>(good.size()));
}

TEST(SerializeTest, TruncationDetected) {
  workload::Generator gen(9);
  const Schema schema = gen.RandomSchema(2);
  std::vector<std::pair<SnapshotState, TransactionNumber>> sequence = {
      {gen.RandomState(schema, 5), 2}};
  const std::string good = EncodeStateSequence(sequence);
  for (size_t keep = 0; keep < good.size(); ++keep) {
    auto decoded =
        DecodeStateSequence<SnapshotState>(std::string_view(good).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << keep << " not caught";
  }
}

TEST(SerializeTest, RejectsBadMagicAndVersion) {
  std::vector<std::pair<SnapshotState, TransactionNumber>> sequence;
  std::string good = EncodeStateSequence(sequence);
  std::string bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeStateSequence<SnapshotState>(bad_magic).status().code(),
            ErrorCode::kCorruption);
  std::string bad_version = good;
  bad_version[8] = 99;
  EXPECT_EQ(DecodeStateSequence<SnapshotState>(bad_version).status().code(),
            ErrorCode::kCorruption);
}

TEST(SerializeTest, ApproxSizeGrowsWithContent) {
  EXPECT_GT(ApproxSize(Value::String("a long string value")),
            ApproxSize(Value::Int(1)));
  EXPECT_GT(ApproxSize(Tuple{Value::Int(1), Value::Int(2)}),
            ApproxSize(Tuple{Value::Int(1)}));
}

// --- Decoded counts ------------------------------------------------------------
//
// Every encoded element takes at least one byte, so a count larger than
// the bytes left is corruption. Each decoder must say so instead of
// handing the count to reserve() (std::bad_alloc at 2^40).

constexpr uint64_t kHugeCount = uint64_t{1} << 40;

void PutTestU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::string EncodedNarrowSchema() {
  std::string out;
  EncodeSchema(*Schema::Make({{"id", ValueType::kInt}}), out);
  return out;
}

/// A count followed by `tail` filler bytes (fewer than the count claims).
std::string HugeCountThen(size_t tail) {
  std::string out;
  PutTestU64(kHugeCount, out);
  out.append(tail, '\0');
  return out;
}

template <typename Decode>
void ExpectCorruption(const std::string& bytes, Decode decode) {
  ByteReader reader(bytes);
  auto result = decode(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCorruption)
      << result.status().message();
}

TEST(DecodeCountTest, ByteReaderRemainingAndCount) {
  std::string bytes;
  PutTestU64(3, bytes);
  bytes += "abc";
  ByteReader reader(bytes);
  EXPECT_EQ(reader.remaining(), 11u);
  auto count = reader.ReadCount();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // exactly the bytes left is fine
  EXPECT_EQ(reader.remaining(), 3u);
  std::string huge_string;
  PutTestU64(~uint64_t{0}, huge_string);  // pos + length would overflow
  ExpectCorruption(huge_string, [](ByteReader& r) { return r.ReadString(); });
}

TEST(DecodeCountTest, TupleArityBeyondInput) {
  ExpectCorruption(HugeCountThen(16), DecodeTuple);
  // A well-formed tuple still decodes, its count equal to its bytes' floor.
  std::string good;
  EncodeTuple(Tuple{Value::Bool(true), Value::Bool(false)}, good);
  ByteReader reader(good);
  auto tuple = DecodeTuple(reader);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(*tuple, (Tuple{Value::Bool(true), Value::Bool(false)}));
}

TEST(DecodeCountTest, SchemaCountBeyondInput) {
  ExpectCorruption(HugeCountThen(16), DecodeSchema);
}

TEST(DecodeCountTest, SnapshotStateTupleCountBeyondInput) {
  ExpectCorruption(EncodedNarrowSchema() + HugeCountThen(16),
                   DecodeSnapshotState);
}

TEST(DecodeCountTest, TemporalElementCountBeyondInput) {
  ExpectCorruption(HugeCountThen(16), DecodeTemporalElement);
}

TEST(DecodeCountTest, HistoricalStateTupleCountBeyondInput) {
  ExpectCorruption(EncodedNarrowSchema() + HugeCountThen(16),
                   DecodeHistoricalState);
}

TEST(DecodeCountTest, StateSequenceCountBeyondInput) {
  // A correctly framed sequence whose state count is damaged: the frame
  // checksum matches, so only the count check can refuse it.
  const std::string payload = HugeCountThen(16);
  uint64_t fnv = 0xcbf29ce484222325ULL;
  for (unsigned char c : payload) {
    fnv ^= c;
    fnv *= 0x100000001b3ULL;
  }
  std::string framed = EncodeStateSequence<SnapshotState>({});
  framed.resize(8 + 1);  // magic + version
  PutTestU64(fnv, framed);
  PutTestU64(payload.size(), framed);
  framed += payload;
  auto decoded = DecodeStateSequence<SnapshotState>(framed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
}

TEST(DecodeCountTest, SegmentDeltaRowCountBeyondInput) {
  const SnapshotState prev = *SnapshotState::Make(
      *Schema::Make({{"id", ValueType::kInt}}), {Tuple{Value::Int(1)}});
  std::string entry;
  entry.push_back(static_cast<char>(SegmentEntryKind::kDelta));
  PutTestU64(7, entry);
  entry += HugeCountThen(16);
  auto decoded = DecodeSegmentEntry<SnapshotState>(entry, &prev);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kCorruption);
  EXPECT_FALSE(
      ValidateSegmentEntry(SegmentStateKind::kSnapshotRows, entry).ok());
}

// --- Shared payloads through the segment delta codec ------------------------------

/// Rows of `next` that are neither removed nor added by the delta from
/// `prev` must come back on the predecessor's payloads.
template <typename StateT, typename SharesFn>
void ExpectDeltaDecodeSharesKeptRows(const StateT& prev, const StateT& next,
                                     SharesFn shares) {
  const std::string entry = EncodeDeltaEntry(prev, next, 9);
  auto decoded = DecodeSegmentEntry<StateT>(entry, &prev);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_EQ(*decoded, next);
  size_t kept = 0;
  for (const auto& row : decoded->tuples()) {
    auto it = std::lower_bound(prev.tuples().begin(), prev.tuples().end(),
                               row);
    if (it != prev.tuples().end() && *it == row) {
      ++kept;
      EXPECT_TRUE(shares(row, *it)) << row;
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, decoded->size());
}

TEST(SegmentCodecTest, DeltaDecodeSharesKeptSnapshotRows) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    workload::Generator gen(seed + 500);
    const Schema schema = gen.RandomSchema(3);
    const SnapshotState prev = gen.RandomState(schema, 40);
    SnapshotState next = gen.MutateState(prev, 0.1);
    std::vector<Tuple> rows = next.tuples();
    rows.push_back(gen.RandomTuple(schema));  // at least one added row
    next = *SnapshotState::Make(schema, std::move(rows));
    ExpectDeltaDecodeSharesKeptRows(
        prev, next, [](const Tuple& a, const Tuple& b) {
          return a.values().data() == b.values().data();
        });
  }
}

TEST(SegmentCodecTest, DeltaDecodeSharesKeptHistoricalRows) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    workload::Generator gen(seed + 600);
    const Schema schema = gen.RandomSchema(2);
    const HistoricalState prev = gen.RandomHistoricalState(schema, 40);
    HistoricalState next = gen.MutateState(prev, 0.1);
    std::vector<HistoricalTuple> rows = next.tuples();
    rows.push_back(HistoricalTuple{gen.RandomTuple(schema),
                                   TemporalElement::Span(2000, 2001)});
    next = *HistoricalState::Make(schema, std::move(rows));
    ExpectDeltaDecodeSharesKeptRows(
        prev, next, [](const HistoricalTuple& a, const HistoricalTuple& b) {
          return a.tuple.values().data() == b.tuple.values().data() &&
                 a.valid.intervals().data() == b.valid.intervals().data();
        });
  }
}

}  // namespace
}  // namespace ttra
