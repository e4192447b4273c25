#include <gtest/gtest.h>

#include <algorithm>

#include "rollback/commands.h"
#include "rollback/compact_store.h"
#include "spec_log.h"
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

// --- StateLog unit behaviour ----------------------------------------------------

TEST(StateLogTest, EmptyLogHasNoStates) {
  StateLog<SnapshotState> log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.StateAt(0), nullptr);
  EXPECT_EQ(log.StateAt(1000), nullptr);
}

TEST(StateLogTest, AppendAndFindState) {
  StateLog<SnapshotState> log;
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

TEST(StateLogTest, AppendRejectsNonIncreasingTxn) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(Nums({1}), 5).ok());
  EXPECT_FALSE(log.Append(Nums({2}), 5).ok());
  EXPECT_FALSE(log.Append(Nums({2}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
}

TEST(StateLogTest, ReplaceLastKeepsSingleState) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.ReplaceLast(Nums({1}), 2).ok());
  ASSERT_TRUE(log.ReplaceLast(Nums({7}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(*log.StateAt(3), Nums({7}));
  EXPECT_EQ(log.TxnAt(0), 3u);
}

TEST(StateLogTest, ReplaceLastDropsEveryEarlierPair) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(Nums({1}), 2).ok());
  ASSERT_TRUE(log.Append(Nums({1, 2}), 4).ok());
  ASSERT_TRUE(log.Append(Nums({3}), 6).ok());
  ASSERT_TRUE(log.ReplaceLast(Nums({9}), 7).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.StateAt(6), nullptr);
  EXPECT_EQ(*log.StateAt(7), Nums({9}));
}

TEST(StateLogTest, CopiesAppendIndependently) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(Nums({1}), 2).ok());
  auto copy = log;
  ASSERT_TRUE(copy.Append(Nums({1, 2}), 3).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
}

TEST(StateLogTest, HandlesSchemeChange) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(Nums({1, 2}), 2).ok());
  Schema wider = *Schema::Make({{"n", ValueType::kInt},
                                {"s", ValueType::kString}});
  SnapshotState wide = *SnapshotState::Make(
      wider, {Tuple{Value::Int(1), Value::String("x")}});
  ASSERT_TRUE(log.Append(wide, 3).ok());
  EXPECT_EQ(*log.StateAt(2), Nums({1, 2}));
  EXPECT_EQ(*log.StateAt(3), wide);
}

TEST(StateLogTest, FindStateHandsOutTheStoredState) {
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(Nums({1, 2}), 2).ok());
  ASSERT_TRUE(log.Append(Nums({3}), 5).ok());
  // Every probe inside one pair's span returns that pair's stored state.
  EXPECT_EQ(log.StateAt(2).get(), log.StateAt(4).get());
  EXPECT_NE(log.StateAt(4).get(), log.StateAt(5).get());
}

// Bytes one appended state may add at most when it differs from its
// predecessor in one tuple: the entry and the state's header (well under
// this), one handle per tuple, and the changed tuple's payload.
constexpr size_t kStateOverheadBound = 128;

TEST(StateLogTest, ApproxBytesChargesEachSharedPayloadOnce) {
  const Schema schema = *Schema::Make({{"id", ValueType::kInt},
                                       {"name", ValueType::kString}});
  constexpr size_t kTuples = 64;
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < kTuples; ++i) {
    tuples.push_back(Tuple{Value::Int(static_cast<int64_t>(i)),
                           Value::String("row-" + std::to_string(i))});
  }
  StateLog<SnapshotState> log;
  ASSERT_TRUE(log.Append(*SnapshotState::Make(schema, tuples), 1).ok());
  for (TransactionNumber txn = 2; txn <= 200; ++txn) {
    const size_t before = log.ApproxBytes();
    Tuple changed{Value::Int(static_cast<int64_t>(txn % kTuples)),
                  Value::String("version-" + std::to_string(txn))};
    const size_t bound =
        ApproxSize(changed) + kStateOverheadBound + kTuples * sizeof(Tuple);
    tuples[txn % kTuples] = std::move(changed);
    ASSERT_TRUE(log.Append(*SnapshotState::Make(schema, tuples), txn).ok());
    ASSERT_LE(log.ApproxBytes() - before, bound) << "txn " << txn;
  }
  // Re-appending a copy of the last state shares its representation.
  const size_t before = log.ApproxBytes();
  ASSERT_TRUE(log.Append(*log.StateAt(200), 201).ok());
  EXPECT_LE(log.ApproxBytes() - before, kStateOverheadBound);
}

TEST(StateLogTest, ApproxBytesChargesEachSharedHistoricalPayloadOnce) {
  const Schema schema = *Schema::Make({{"id", ValueType::kInt}});
  constexpr size_t kTuples = 32;
  std::vector<HistoricalTuple> tuples;
  for (size_t i = 0; i < kTuples; ++i) {
    tuples.push_back(HistoricalTuple{Tuple{Value::Int(static_cast<int64_t>(i))},
                                     TemporalElement::Span(0, 10)});
  }
  StateLog<HistoricalState> log;
  ASSERT_TRUE(log.Append(*HistoricalState::Make(schema, tuples), 1).ok());
  for (TransactionNumber txn = 2; txn <= 100; ++txn) {
    const size_t before = log.ApproxBytes();
    const auto at = static_cast<Chronon>(txn);
    HistoricalTuple changed{Tuple{Value::Int(static_cast<int64_t>(txn % kTuples))},
                            TemporalElement::Span(at, at + 5)};
    const size_t bound = ApproxSize(changed.tuple) + kStateOverheadBound +
                         kTuples * sizeof(HistoricalTuple);
    tuples[txn % kTuples] = std::move(changed);
    ASSERT_TRUE(log.Append(*HistoricalState::Make(schema, tuples), txn).ok());
    ASSERT_LE(log.ApproxBytes() - before, bound) << "txn " << txn;
  }
}

// --- FindStateCache, the compact store's probe cache -----------------------------

std::shared_ptr<const SnapshotState> Shared(std::vector<int64_t> values) {
  return std::make_shared<const SnapshotState>(Nums(std::move(values)));
}

TEST(FindStateCacheTest, GetReturnsExactlyTheCachedIndex) {
  const FindStateCache<SnapshotState> cache(4);
  EXPECT_EQ(cache.Get(3), nullptr);
  auto three = Shared({3});
  cache.Put(3, three);
  EXPECT_EQ(cache.Get(3), three);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.Get(4), nullptr);
  // Putting an index again replaces its state.
  auto again = Shared({33});
  cache.Put(3, again);
  EXPECT_EQ(cache.Get(3), again);
}

TEST(FindStateCacheTest, FloorIsTheGreatestCachedIndexAtOrBelow) {
  const FindStateCache<SnapshotState> cache(4);
  EXPECT_FALSE(cache.Floor(10).has_value());
  cache.Put(2, Shared({2}));
  cache.Put(7, Shared({7}));
  EXPECT_FALSE(cache.Floor(1).has_value());
  EXPECT_EQ(cache.Floor(2)->first, 2u);
  EXPECT_EQ(cache.Floor(6)->first, 2u);
  EXPECT_EQ(cache.Floor(7)->first, 7u);
  auto seed = cache.Floor(100);
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(seed->first, 7u);
  EXPECT_EQ(*seed->second, Nums({7}));
}

TEST(FindStateCacheTest, EvictsTheLeastRecentlyUsedAtCapacity) {
  const FindStateCache<SnapshotState> cache(2);
  cache.Put(1, Shared({1}));
  cache.Put(2, Shared({2}));
  ASSERT_NE(cache.Get(1), nullptr);  // 2 is now least recently used
  cache.Put(3, Shared({3}));
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  // A Floor hit counts as a use too.
  ASSERT_EQ(cache.Floor(1)->first, 1u);  // 3 is now least recently used
  cache.Put(4, Shared({4}));
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
}

TEST(FindStateCacheTest, CapacityZeroCachesNothing) {
  const FindStateCache<SnapshotState> cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
  cache.Put(1, Shared({1}));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_FALSE(cache.Floor(1).has_value());
}

TEST(FindStateCacheTest, CopiesAreIndependent) {
  const FindStateCache<SnapshotState> cache(2);
  auto one = Shared({1});
  cache.Put(1, one);
  const FindStateCache<SnapshotState> copy(cache);
  EXPECT_EQ(copy.capacity(), 2u);
  EXPECT_EQ(copy.Get(1), one);  // the copy shares the cached state
  copy.Put(2, Shared({2}));
  cache.Put(3, Shared({3}));
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(copy.Get(3), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(copy.Get(2), nullptr);
}

// --- StateLog against the paper-literal SpecLog (experiment E3) -----------------
//
// The two engines compared are StateLog and SpecLog, the paper's sequence
// with FINDSTATE as a linear scan: every recorded transaction, the gaps
// between them, and probes past both ends must agree, across a scheme
// change and a ReplaceLast.

class EngineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 12));

template <typename StateT>
void ExpectSameFindState(const StateLog<StateT>& log,
                         const SpecLog<StateT>& spec, TransactionNumber last) {
  ASSERT_EQ(log.size(), spec.size());
  for (TransactionNumber probe = 0; probe <= last + 2; ++probe) {
    auto got = log.StateAt(probe);
    const StateT* want = spec.StateAt(probe);
    ASSERT_EQ(got != nullptr, want != nullptr) << "txn " << probe;
    if (want != nullptr) {
      EXPECT_EQ(*got, *want) << "txn " << probe;
    }
  }
  ASSERT_NE(log.StateAt(UINT64_MAX), nullptr);
  EXPECT_EQ(*log.StateAt(UINT64_MAX), *spec.StateAt(UINT64_MAX));
}

/// Appends `count` states to both logs, starting from `state` and mutating
/// it by `churn` each time, with random gaps of 1..`max_gap` between
/// transaction numbers.
template <typename StateT>
void AppendToBoth(workload::Generator& gen, StateT state, int count,
                  double churn, uint64_t max_gap, TransactionNumber& txn,
                  StateLog<StateT>& log, SpecLog<StateT>& spec) {
  for (int i = 0; i < count; ++i) {
    txn += 1 + gen.rng().Uniform(max_gap);
    ASSERT_TRUE(log.Append(state, txn).ok());
    spec.Append(state, txn);
    state = gen.MutateState(state, churn);
  }
}

TEST_P(EngineEquivalenceTest, AllEnginesAgreeOnEveryTransaction) {
  workload::Generator gen(GetParam());
  const Schema schema = gen.RandomSchema();
  StateLog<SnapshotState> log;
  SpecLog<SnapshotState> spec;
  TransactionNumber txn = 1;
  AppendToBoth(gen, gen.RandomState(schema, 25), 40, 0.35, 3, txn, log, spec);
  ExpectSameFindState(log, spec, txn);
  // A scheme change part-way through the history.
  const Schema wider = gen.RandomSchema(schema.size() + 1);
  AppendToBoth(gen, gen.RandomState(wider, 15), 10, 0.35, 3, txn, log, spec);
  ExpectSameFindState(log, spec, txn);
  // ReplaceLast collapses both to a single pair.
  txn += 2;
  const SnapshotState replacement = gen.RandomState(wider, 5);
  ASSERT_TRUE(log.ReplaceLast(replacement, txn).ok());
  spec.ReplaceLast(replacement, txn);
  ExpectSameFindState(log, spec, txn);
}

TEST_P(EngineEquivalenceTest, HistoricalEnginesAgree) {
  workload::Generator gen(GetParam() + 777);
  const Schema schema = gen.RandomSchema();
  StateLog<HistoricalState> log;
  SpecLog<HistoricalState> spec;
  TransactionNumber txn = 1;
  AppendToBoth(gen, gen.RandomHistoricalState(schema, 15), 25, 0.3, 2, txn,
               log, spec);
  ExpectSameFindState(log, spec, txn);
  const Schema wider = gen.RandomSchema(schema.size() + 1);
  AppendToBoth(gen, gen.RandomHistoricalState(wider, 10), 8, 0.3, 2, txn, log,
               spec);
  ExpectSameFindState(log, spec, txn);
  txn += 2;
  const HistoricalState replacement = gen.RandomHistoricalState(wider, 5);
  ASSERT_TRUE(log.ReplaceLast(replacement, txn).ok());
  spec.ReplaceLast(replacement, txn);
  ExpectSameFindState(log, spec, txn);
}

TEST_P(EngineEquivalenceTest, DatabasesWithDifferentEnginesAgree) {
  // A Database's ρ against a SpecLog recording every state the same
  // random command stream commits.
  workload::Generator gen(GetParam() + 31);
  auto commands = gen.RandomCommandStream("r", RelationType::kRollback, 30,
                                          20, 0.3);
  Database db;
  SpecLog<SnapshotState> spec;
  for (const Command& command : commands) {
    ASSERT_TRUE(ApplyCommand(db, command).ok());
    if (const auto* modify = std::get_if<ModifySnapshotCmd>(&command)) {
      spec.Append(modify->state, db.transaction_number());
    }
  }
  const Schema schema = db.Find("r")->schema();
  for (TransactionNumber probe = 0; probe <= db.transaction_number() + 1;
       ++probe) {
    auto got = db.Rollback("r", probe);
    ASSERT_TRUE(got.ok());
    const SnapshotState* want = spec.StateAt(probe);
    EXPECT_EQ(*got, want != nullptr ? *want : SnapshotState::Empty(schema))
        << "txn " << probe;
  }
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
  StateLog<SnapshotState> log;
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
  // Rebuild a log from the decoded sequence and verify FINDSTATE
  // agreement.
  StateLog<SnapshotState> rebuilt;
  for (const auto& [decoded_state, txn] : *decoded) {
    ASSERT_TRUE(rebuilt.Append(decoded_state, txn).ok());
  }
  for (TransactionNumber probe = 0; probe < 25; ++probe) {
    auto a = log.StateAt(probe);
    auto b = rebuilt.StateAt(probe);
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
