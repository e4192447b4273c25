// e2e_bench — the end-to-end benchmark program. run.py builds it and runs
// it twice per measurement, in separate processes:
//
//   e2e_bench sut    --workload W --seed S --seconds N --trace 0|1 --dir D
//   e2e_bench oracle --workload W --seed S --seconds N --dir D
//
// `sut` drives the system under test through its public surface — script
// text → quel::CompileQuel / lang::ParseStmt → lang::AnalyzeStmt →
// optimizer::OptimizeWithFacts → lang::EvalExpr → ShardedExecutor::
// SubmitAsync → ack, reads on pinned Sessions — and prints one JSON line of
// metrics. It leaves the database directory and the answers it observed in
// D. `oracle` replays the same generated inputs through SerialExecutor (the
// paper's serial semantics) and computes every answer by direct Database
// lookups, then compares; it prints one JSON line with the mismatch count.
// Running the oracle in its own process keeps it (and its copy of the
// database) out of the system's peak RSS.

#include <fcntl.h>
#include <malloc.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lang/absint.h"
#include "lang/analyzer.h"
#include "lang/evaluator.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "quel/quel.h"
#include "rollback/compact_store.h"
#include "rollback/persistence.h"
#include "rollback/serial_executor.h"
#include "rollback/sharded_executor.h"
#include "timing_env.h"
#include "trace.h"
#include "workload.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

using namespace ttra;

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

namespace {

/// The executor, layout and storage engine under test, set in this one
/// place: ShardedExecutor with one shard, compact segments, full-copy
/// state logs, an fsync before every acknowledgement. Everything else is
/// the executor's default.
ShardedOptions ExecutorOptions() {
  ShardedOptions options;
  options.shards = 1;
  options.durable.compact_storage = true;
  options.durable.sync_policy = SyncPolicy::kAlways;
  options.durable.db.storage = StorageKind::kFullCopy;
  return options;
}

/// Rounds per run: each sets up afresh and then runs the timed phase on
/// the same inputs. setup_s, op_p50_us and peak_rss_mb are medians over
/// the rounds, so a round slowed by a busy host does not move them; the
/// other latency figures pool every round's operations.
constexpr int kRounds = 7;
/// Stop-then-Start cycles per run; recover_s is their median.
constexpr int kRecoveries = 9;

struct Args {
  std::string mode;
  Workload workload = Workload::kTxnLongHistory;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  if (args->mode != "sut" && args->mode != "oracle") return false;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        if (!ParseWorkload(value, &args->workload)) return false;
        have_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
        have_seconds = args->seconds >= 1 && args->seconds <= 600;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--dir") {
        args->dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && !args->dir.empty();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Times one operation from script text to ack. When traced, it also
/// keeps a span per call into a module and hands them, with the root
/// span, to the tracer when the operation finishes — so recording costs
/// no lock inside the operation.
class OpScope {
 public:
  OpScope(bool traced, uint64_t request)
      : traced_(traced), request_(request) {
    if (traced_) children_.reserve(12);
    start_ns_ = NowNs();
  }

  /// Runs `call` as a span named `name` (a static string).
  template <typename F>
  auto Call(const char* name, F&& call) {
    if (!traced_) return call();
    const int64_t start = NowNs();
    auto result = call();
    children_.push_back(Span{name, start, NowNs(), 0, request_});
    return result;
  }

  /// Records an already-timed child span (pipelined submit → ack).
  void Child(const char* name, int64_t start, int64_t end) {
    if (traced_) children_.push_back(Span{name, start, end, 0, request_});
  }

  /// Ends the operation; returns its latency.
  int64_t Finish(int64_t end_ns = 0) {
    if (end_ns == 0) end_ns = NowNs();
    if (traced_) {
      GlobalTracer().RecordOp(Span{"op", start_ns_, end_ns, -1, request_},
                              children_);
    }
    return end_ns - start_ns_;
  }

  bool traced() const { return traced_; }

 private:
  bool traced_;
  uint64_t request_;
  int64_t start_ns_ = 0;
  std::vector<Span> children_;
};

/// Facts for OptimizeWithFacts. They abstract a pinned database, so a
/// client may reuse them while its sessions stay at one epoch; a commit
/// moves the epoch and forces a fresh AbsStateFromDatabase.
struct FactsCache {
  std::optional<TransactionNumber> epoch;
  lang::AbsState facts;

  const lang::AbsState& Get(const Session& session) {
    if (epoch != session.epoch()) {
      facts = lang::AbsStateFromDatabase(session.database());
      epoch = session.epoch();
    }
    return facts;
  }
};

/// Script text → optimized statement: quel.compile or lang.parse, then
/// lang.analyze and optimizer.optimize, each timed as its own span.
/// `facts()` yields the optimizer's facts; it runs inside the optimizer's
/// span because deriving them from a database is the optimizer's cost.
template <typename FactsFn>
Result<lang::Stmt> Compile(const Op& op, const Database& db, FactsFn&& facts,
                           OpScope& scope) {
  lang::Catalog catalog;
  const bool quel = IsQuel(op.kind);
  Result<lang::Stmt> parsed =
      quel ? scope.Call("quel.compile",
                        [&]() -> Result<lang::Stmt> {
                          catalog = lang::Catalog(db);
                          TTRA_ASSIGN_OR_RETURN(quel::QuelStmt stmt,
                                                quel::ParseQuel(op.text));
                          return quel::CompileQuel(stmt, catalog);
                        })
           : scope.Call("lang.parse", [&] { return lang::ParseStmt(op.text); });
  if (!parsed.ok()) return parsed.status();
  TTRA_RETURN_IF_ERROR(scope.Call("lang.analyze", [&] {
    if (!quel) catalog = lang::Catalog(db);
    return lang::AnalyzeStmt(*parsed, catalog);
  }));
  lang::Expr* expr = nullptr;
  if (auto* modify = std::get_if<lang::ModifyStateStmt>(&*parsed)) {
    expr = &modify->expr;
  } else if (auto* show = std::get_if<lang::ShowStmt>(&*parsed)) {
    expr = &show->expr;
  } else {
    return InvalidArgumentError("not a modify_state or show statement");
  }
  scope.Call("optimizer.optimize", [&] {
    const lang::Catalog last_use = std::move(catalog);  // freed in the span
    *expr = optimizer::OptimizeWithFacts(*expr, last_use, facts());
    return 0;
  });
  return parsed;
}

/// lang.eval: E⟦expr⟧ on the pinned database. The statement is consumed,
/// so releasing its tree falls inside the evaluator's span too.
Result<lang::StateValue> Eval(lang::Stmt stmt, const Database& db,
                              OpScope& scope) {
  return scope.Call("lang.eval", [&]() -> Result<lang::StateValue> {
    const lang::Stmt last_use = std::move(stmt);
    if (auto* modify = std::get_if<lang::ModifyStateStmt>(&last_use)) {
      return lang::EvalExpr(modify->expr, db);
    }
    if (auto* show = std::get_if<lang::ShowStmt>(&last_use)) {
      return lang::EvalExpr(show->expr, db);
    }
    return InvalidArgumentError("statement has no expression");
  });
}

/// modify_state(relation, value) as the executor's command sentence.
std::vector<Command> ToSentence(const std::string& relation,
                                lang::StateValue value) {
  std::vector<Command> sentence;
  if (auto* snapshot = std::get_if<SnapshotState>(&value)) {
    sentence.push_back(ModifySnapshotCmd{relation, std::move(*snapshot)});
  } else {
    sentence.push_back(ModifyHistoricalCmd{
        relation, std::get<HistoricalState>(std::move(value))});
  }
  return sentence;
}

uint64_t Hash(const lang::StateValue& value) {
  if (auto* snapshot = std::get_if<SnapshotState>(&value)) {
    return AnswerHash(*snapshot);
  }
  return AnswerHash(std::get<HistoricalState>(value));
}

template <typename StateT>
Result<lang::StateValue> AsValue(Result<StateT> state) {
  if (!state.ok()) return state.status();
  return lang::StateValue(std::move(*state));
}

/// Runs one operation; returns its answer (for an update, the ρ(R, ∞) it
/// read before committing). Hashing the answer is the caller's, outside
/// the operation's time.
Result<lang::StateValue> RunOnSession(const Op& op, ShardedExecutor& exec,
                                      const Session& session,
                                      FactsCache& facts, OpScope& scope) {
  auto compile = [&] {
    return Compile(op, session.database(),
                   [&]() -> const lang::AbsState& { return facts.Get(session); },
                   scope);
  };
  switch (op.kind) {
    case OpKind::kSessionRho:
      return scope.Call("rollback.rho", [&]() -> Result<lang::StateValue> {
        return AsValue(session.Rollback(op.relation, op.n1));
      });
    case OpKind::kSessionHrho:
      return scope.Call("rollback.rho", [&]() -> Result<lang::StateValue> {
        return AsValue(session.RollbackHistorical(op.relation, op.n1));
      });
    case OpKind::kQuelAsOf:
    case OpKind::kSliceAsOf:
    case OpKind::kBetween:
    case OpKind::kSequencedJoin: {
      TTRA_ASSIGN_OR_RETURN(lang::Stmt stmt, compile());
      return Eval(std::move(stmt), session.database(), scope);
    }
    default:
      break;
  }
  // An update of txn_long_history: read ρ(R, ∞) on the pinned session,
  // compile the sentence against it, commit and wait for the ack.
  const bool historical =
      op.kind == OpKind::kCorrectValid || op.kind == OpKind::kHistoricalEdit;
  Result<lang::StateValue> read =
      scope.Call("rollback.rho", [&]() -> Result<lang::StateValue> {
        if (historical) return AsValue(session.RollbackHistorical(op.relation));
        return AsValue(session.Rollback(op.relation));
      });
  if (!read.ok()) return read.status();
  TTRA_ASSIGN_OR_RETURN(lang::Stmt stmt, compile());
  TTRA_ASSIGN_OR_RETURN(lang::StateValue value,
                        Eval(std::move(stmt), session.database(), scope));
  TTRA_RETURN_IF_ERROR(scope.Call("rollback.submit_to_ack", [&] {
    return exec.SubmitAsync(ToSentence(op.relation, std::move(value)))
        .get()
        .status();
  }));
  return read;
}

Result<lang::StateValue> RunOp(const Op& op, ShardedExecutor& exec,
                               FactsCache& facts, OpScope& scope) {
  if (op.kind == OpKind::kProbeRho || op.kind == OpKind::kProbeHrho) {
    CompactStore* store = exec.compact_store();
    return scope.Call("compact.probe", [&]() -> Result<lang::StateValue> {
      if (op.kind == OpKind::kProbeRho) {
        return AsValue(store->ProbeSnapshot(op.relation, op.n1));
      }
      return AsValue(store->ProbeHistorical(op.relation, op.n1));
    });
  }
  std::optional<Session> session = scope.Call(
      "rollback.session_open",
      [&] { return std::optional<Session>(exec.OpenSession()); });
  Result<lang::StateValue> answer =
      RunOnSession(op, exec, *session, facts, scope);
  // Releasing the last reference to a superseded snapshot frees it here.
  scope.Call("rollback.session_release", [&] {
    session.reset();
    return 0;
  });
  return answer;
}

Status CreateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return IoError("cannot create " + dir + ": " + ec.message());
  return Status::Ok();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Resets the process's peak RSS to its current RSS (Linux ≥ 4.0), so
/// each round's peak is its own and not the previous round's.
void ResetPeakRss() {
  // Hand the previous round's freed heap back first, so every round's
  // peak starts from the same baseline.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// name → (value, unit), printed in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(items[i].first) + ": {\"value\": " +
             JsonNumber(items[i].second.first) +
             ", \"unit\": " + JsonString(items[i].second.second) + "}";
    }
    return out + "}";
  }
};

/// Counters of the commit layer at one point of the run.
struct CommitCounters {
  ShardedExecutor::Stats stats;
  TimingEnv::Counts env;
};

CommitCounters Capture(const ShardedExecutor& exec, const TimingEnv& env) {
  return CommitCounters{exec.stats(), env.counts()};
}

/// Per-layer numbers derived from the spans of the traced operations.
struct SpanSummary {
  std::map<std::string, std::vector<double>> self_us;  // by span name
  double op_wall_ns = 0;  // Σ traced root spans
  double covered_ns = 0;  // Σ module spans inside them
};

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t Coverage(std::vector<std::pair<int64_t, int64_t>> intervals,
                 int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Module spans are leaves, so their time is their self time. Storage
/// spans run on the writer thread and have no parent; the part of a
/// submit → ack span they cover is storage time, and the rest is the
/// commit pipeline's own (rollback.commit_self).
SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  std::vector<std::pair<int64_t, int64_t>> storage;
  for (const Span& span : spans) {
    if (span.parent < 0 && span.request == 0) {
      storage.push_back({span.start_ns, span.end_ns});
      summary.self_us[span.name].push_back(
          static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  std::sort(storage.begin(), storage.end());
  auto storage_within = [&](int64_t lo, int64_t hi) {
    std::vector<std::pair<int64_t, int64_t>> inside;
    auto it = std::lower_bound(storage.begin(), storage.end(),
                               std::pair<int64_t, int64_t>{lo, INT64_MIN});
    // A span starting before `lo` can still reach into the interval.
    if (it != storage.begin()) --it;
    for (; it != storage.end() && it->first < hi; ++it) inside.push_back(*it);
    return Coverage(std::move(inside), lo, hi);
  };
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const int64_t dur = span.end_ns - span.start_ns;
    const std::string name = span.name;
    if (name == "rollback.submit_to_ack") {
      const int64_t self = dur - storage_within(span.start_ns, span.end_ns);
      summary.self_us["rollback.commit_self"].push_back(
          static_cast<double>(self) / 1e3);
    }
    // Module spans of one operation are sequential, so their durations
    // (each the module's self time plus the storage time inside it) add
    // up to the part of the operation the modules account for.
    summary.covered_ns += static_cast<double>(dur);
    summary.self_us[name].push_back(static_cast<double>(dur) / 1e3);
  }
  for (const Span& span : spans) {
    if (span.parent >= 0 || span.request == 0) continue;
    summary.op_wall_ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  return summary;
}

struct SetupResult {
  std::unique_ptr<ShardedExecutor> exec;
  Inputs inputs;
  double generate_s = 0;
  double load_s = 0;
};

/// Writes the preload as the compact checkpoint of a fresh directory:
/// applied to a Database by the paper's command semantics, then one
/// CompactStore::WriteCheckpoint. It runs in a forked child, so the
/// preload database never counts toward the system's peak RSS, and it
/// writes a few delta-encoded segments instead of one WAL record and one
/// fsync per batch of preload commands.
Status WritePreload(const std::vector<Command>& preload, const std::string& dir) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) return IoError("fork failed");
  if (pid == 0) {
    // Single-threaded here: the previous round's executor has been joined.
    PosixEnv env;
    Database db(ExecutorOptions().durable.db);
    Status status = ApplySentence(db, preload);
    if (status.ok()) {
      CompactStore store(&env, dir, ExecutorOptions().durable.compact);
      status = store.WriteCheckpoint(db);
    }
    if (!status.ok()) std::cerr << "e2e_bench: preload: " << status.ToString() << "\n";
    std::_Exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return IoError("writing the preload failed");
  }
  return Status::Ok();
}

/// Input generation, then system load: the preload written as a compact
/// checkpoint and a fresh executor started on it (Start loads every
/// segment).
Result<SetupResult> Setup(const Args& args, TimingEnv& env,
                          const std::string& db_dir) {
  SetupResult setup;
  const int64_t t0 = NowNs();
  setup.inputs = Generate(args.workload, args.seed, args.seconds);
  const int64_t t1 = NowNs();
  TTRA_RETURN_IF_ERROR(CreateDir(db_dir));
  TTRA_RETURN_IF_ERROR(WritePreload(setup.inputs.preload, db_dir));
  setup.exec = std::make_unique<ShardedExecutor>(&env, db_dir, ExecutorOptions());
  TTRA_RETURN_IF_ERROR(setup.exec->Start());
  const int64_t t2 = NowNs();
  setup.generate_s = Seconds(t1 - t0);
  setup.load_s = Seconds(t2 - t1);
  return setup;
}

/// The host's speed when the run starts, recorded next to the result so a
/// run on a busy host can be told from a slow program: a fixed integer
/// loop, and 64 small append + fsync pairs in the run directory.
struct HostProbe {
  double cpu_ms = 0;
  double fsync_p50_us = 0;
};

HostProbe ProbeHost(const std::string& dir) {
  HostProbe probe;
  const int64_t t0 = NowNs();
  uint64_t h = 1469598103934665603ull;
  for (uint64_t i = 0; i < 20'000'000; ++i) h = (h ^ i) * 1099511628211ull;
  volatile uint64_t sink = h;  // keeps the loop
  (void)sink;
  probe.cpu_ms = static_cast<double>(NowNs() - t0) / 1e6;
  Env* env = Env::Default();
  const std::string path = dir + "/host-probe";
  std::vector<double> sync_us;
  for (int i = 0; i < 64; ++i) {
    if (!env->Append(path, std::string(512, 'p')).ok()) break;
    const int64_t start = NowNs();
    if (!env->Sync(path).ok()) break;
    sync_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  env->Remove(path).IgnoreError();
  probe.fsync_p50_us = Percentile(sync_us, 0.5);
  return probe;
}

/// Commit-layer counters summed over a run's commit phases.
struct CommitTotals {
  uint64_t commits = 0;
  uint64_t batches = 0;
  uint64_t wal_syncs = 0;
  uint64_t sync_ns = 0;
  uint64_t append_bytes = 0;
  uint64_t identity_failures = 0;

  /// Adds the change between two captures, and checks the decorator's
  /// counts against the executor's own WAL accounting (one shard,
  /// kAlways): syncs = batches, records = 2·batches, appends agree.
  void Add(const CommitCounters& begin, const CommitCounters& end) {
    const uint64_t b = end.stats.batches - begin.stats.batches;
    const auto& w0 = begin.stats.per_shard.at(0).wal;
    const auto& w1 = end.stats.per_shard.at(0).wal;
    const uint64_t env_syncs = end.env.wal_syncs - begin.env.wal_syncs;
    const uint64_t env_appends = end.env.wal_appends - begin.env.wal_appends;
    if (env_syncs != w1.syncs - w0.syncs || env_syncs != b ||
        w1.records - w0.records != 2 * b ||
        env_appends != w1.appends - w0.appends) {
      std::cerr << "e2e_bench: storage accounting mismatch: env syncs "
                << env_syncs << ", wal syncs " << w1.syncs - w0.syncs
                << ", batches " << b << ", wal records "
                << w1.records - w0.records << ", env appends " << env_appends
                << ", wal appends " << w1.appends - w0.appends << "\n";
      ++identity_failures;
    }
    commits += end.stats.commits - begin.stats.commits;
    batches += b;
    wal_syncs += env_syncs;
    sync_ns += end.env.sync_ns - begin.env.sync_ns;
    append_bytes += end.env.append_bytes - begin.env.append_bytes;
  }
};

/// Compact-probe counters summed over executors.
struct ProbeTotals {
  uint64_t probes = 0;
  uint64_t hits = 0;
  uint64_t decoded = 0;

  void Add(const CompactStore::Stats& begin, const CompactStore::Stats& end) {
    probes += end.probes - begin.probes;
    hits += end.probe_cache_hits - begin.probe_cache_hits;
    decoded += end.probe_decoded_entries - begin.probe_decoded_entries;
  }
};

/// What the timed phases of a run record.
struct Recorder {
  std::vector<double> latency_us;         // untraced operations
  std::vector<double> traced_latency_us;  // traced operations
  std::vector<double> round_p50_us;       // of each round's untraced ones
  std::vector<uint64_t> answers;          // hashes, of the current round
  int64_t timed_ns = 0;
  uint64_t errors = 0;
  uint64_t request = 0;

  void Note(const Status& status) {
    if (status.ok()) return;
    if (++errors <= 5) std::cerr << "e2e_bench: " << status.ToString() << "\n";
  }
};

/// One round's timed phase (after asof_query's untimed warm-up). With
/// `trace`, even operations are traced and odd ones are not, so the
/// tracing overhead is measured on the same history.
void RunTimed(const Inputs& in, ShardedExecutor& exec, Workload workload,
              bool trace, Recorder& rec) {
  Tracer& tracer = GlobalTracer();
  FactsCache facts;
  for (const Op& op : in.warmup) {
    OpScope scope(false, 0);
    Result<lang::StateValue> answer = RunOp(op, exec, facts, scope);
    rec.Note(answer.status());
    rec.answers.push_back(answer.ok() ? Hash(*answer) : 0);
  }
  const int64_t start = NowNs();
  if (workload != Workload::kIngestPipelined) {
    for (size_t i = 0; i < in.ops.size(); ++i) {
      const bool traced = trace && i % 2 == 0;
      tracer.SetActive(traced);
      OpScope scope(traced, ++rec.request);
      Result<lang::StateValue> answer = RunOp(in.ops[i], exec, facts, scope);
      const double us = static_cast<double>(scope.Finish()) / 1e3;
      tracer.SetActive(false);
      (traced ? rec.traced_latency_us : rec.latency_us).push_back(us);
      rec.Note(answer.status());
      rec.answers.push_back(answer.ok() ? Hash(*answer) : 0);
    }
    rec.timed_ns += NowNs() - start;
    return;
  }
  // One client thread, a fixed window of sentences in flight. Constant
  // sentences need no database state, so the catalog comes from the
  // definitions and the facts are the no-knowledge initial state.
  Session session = exec.OpenSession();
  const lang::Catalog catalog(session.database());
  const lang::AbsState initial = lang::InitialAbsState(catalog, std::nullopt);
  struct Inflight {
    std::future<Result<TransactionNumber>> ack;
    std::unique_ptr<OpScope> scope;
    int64_t submit_ns = 0;
  };
  std::deque<Inflight> inflight;
  auto collect = [&] {
    Inflight& front = inflight.front();
    Result<TransactionNumber> result = front.ack.get();
    const int64_t end = NowNs();
    front.scope->Child("rollback.submit_to_ack", front.submit_ns, end);
    const double us = static_cast<double>(front.scope->Finish(end)) / 1e3;
    (front.scope->traced() ? rec.traced_latency_us : rec.latency_us).push_back(us);
    rec.Note(result.status());
    inflight.pop_front();
  };
  // Storage calls run on the writer thread and cannot be told apart per
  // sentence, so a traced run records them throughout.
  tracer.SetActive(trace);
  for (size_t i = 0; i < in.ops.size(); ++i) {
    while (inflight.size() >= in.sizes.ingest_window) collect();
    auto scope = std::make_unique<OpScope>(trace && i % 2 == 0, ++rec.request);
    auto stmt = Compile(in.ops[i], session.database(),
                        [&]() -> const lang::AbsState& { return initial; },
                        *scope);
    Result<lang::StateValue> value =
        stmt.ok() ? Eval(std::move(*stmt), session.database(), *scope)
                  : Result<lang::StateValue>(stmt.status());
    if (!value.ok()) {
      rec.Note(value.status());
      scope->Finish();
      continue;
    }
    const int64_t submit = NowNs();
    inflight.push_back(Inflight{
        exec.SubmitAsync(ToSentence(in.ops[i].relation, std::move(*value))),
        std::move(scope), submit});
  }
  while (!inflight.empty()) collect();
  tracer.SetActive(false);
  rec.timed_ns += NowNs() - start;
}

int RunSut(const Args& args) {
#ifndef NDEBUG
  std::cerr << "e2e_bench: built without NDEBUG (build type " E2E_BUILD_TYPE
               "); timings from this build are not measurements\n";
  return 3;
#endif
  Tracer& tracer = GlobalTracer();
  TimingEnv env(Env::Default());
  // Every database directory is used once: PosixEnv caches open
  // descriptors by path, so a path must not be recreated behind its back.
  auto round_dir = [&](int i) { return args.dir + "/round-" + std::to_string(i); };
  const bool ingest = args.workload == Workload::kIngestPipelined;

  const HostProbe host = ProbeHost(args.dir);

  // --- Rounds: set up afresh, then the timed phase. ------------------------
  std::vector<double> setup_s, generate_s, load_s, peak_rss_mb;
  Recorder rec;
  CommitTotals commit;
  ProbeTotals probes;
  std::vector<uint64_t> first_answers;
  uint64_t round_mismatches = 0;
  SetupResult setup;
  for (int r = 0; r < kRounds; ++r) {
    // Stop and free the previous round's system. Its directory stays until
    // the run's end: deleting files on a disk mounted with discard slows
    // the fsyncs that follow.
    setup = SetupResult{};
    ResetPeakRss();
    auto result = Setup(args, env, round_dir(r));
    if (!result.ok()) {
      std::cerr << "e2e_bench: setup failed: " << result.status().ToString() << "\n";
      return 1;
    }
    setup = std::move(*result);
    setup_s.push_back(setup.generate_s + setup.load_s);
    generate_s.push_back(setup.generate_s);
    load_s.push_back(setup.load_s);

    ShardedExecutor& exec = *setup.exec;
    const CommitCounters begin = Capture(exec, env);
    const CompactStore::Stats probe_begin = exec.compact_store()->stats();
    rec.answers.clear();
    const size_t round_begin = rec.latency_us.size();
    RunTimed(setup.inputs, exec, args.workload, args.trace, rec);
    std::vector<double> round_us(rec.latency_us.begin() + round_begin,
                                 rec.latency_us.end());
    rec.round_p50_us.push_back(Percentile(round_us, 0.50));
    commit.Add(begin, Capture(exec, env));
    peak_rss_mb.push_back(PeakRssMb());
    probes.Add(probe_begin, exec.compact_store()->stats());
    // Every round runs the same inputs, so it must see the same answers.
    if (r == 0) {
      first_answers = rec.answers;
    } else if (rec.answers != first_answers) {
      std::cerr << "e2e_bench: round " << r << " answered differently\n";
      ++round_mismatches;
    }
  }
  const Inputs& in = setup.inputs;
  const TransactionNumber preload_txn = in.preload_txn;
  const std::vector<Span> spans = tracer.Take();

  // --- Recovery: Stop, then Start a fresh executor on the directory. -------
  // Start replays the log and then checkpoints it away, so each cycle
  // starts on its own copy of the run's final directory (copied untimed):
  // every cycle recovers the same state.
  const TimingEnv::Counts after_timed = env.counts();
  const std::string final_dir = args.dir + "/final";
  std::string db_dir;
  std::vector<double> recover_s, start_s;
  size_t replayed_batches = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    const int64_t t0 = NowNs();
    setup.exec->Stop();
    setup.exec.reset();
    const int64_t t1 = NowNs();
    std::error_code ec;
    if (i == 0) std::filesystem::rename(round_dir(kRounds - 1), final_dir, ec);
    db_dir = args.dir + "/recover-" + std::to_string(i);
    if (!ec) {
      std::filesystem::copy(final_dir, db_dir,
                            std::filesystem::copy_options::recursive, ec);
    }
    if (ec) {
      std::cerr << "e2e_bench: cannot copy the final directory: " << ec.message()
                << "\n";
      return 1;
    }
    // Write the copy out untimed, or Start's first fsync would flush it.
    if (const int fd = ::open(db_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
    const int64_t t2 = NowNs();
    setup.exec = std::make_unique<ShardedExecutor>(&env, db_dir, ExecutorOptions());
    Status started = setup.exec->Start();
    const int64_t t3 = NowNs();
    if (!started.ok()) {
      std::cerr << "e2e_bench: recovery failed: " << started.ToString() << "\n";
      return 1;
    }
    recover_s.push_back(Seconds((t1 - t0) + (t3 - t2)));
    start_s.push_back(Seconds(t3 - t2));
    replayed_batches = setup.exec->last_recovery().replayed_batches;
  }
  ShardedExecutor& exec = *setup.exec;

  // --- Read-back over every read path, then compaction. ---------------------
  rec.Note(exec.Checkpoint());
  const CompactStore::Stats probe_begin = exec.compact_store()->stats();
  const TransactionNumber final_txn = exec.transaction_number();
  const std::vector<Op> readback =
      ReadbackOps(args.workload, args.seed, in.sizes.readback,
                  in.sizes.ingest_relations, ingest ? preload_txn : 7,
                  final_txn);
  FactsCache facts;
  tracer.SetActive(args.trace);
  for (const Op& op : readback) {
    OpScope scope(args.trace, ++rec.request);
    Result<lang::StateValue> answer = RunOp(op, exec, facts, scope);
    scope.Finish();
    rec.Note(answer.status());
    rec.answers.push_back(answer.ok() ? Hash(*answer) : 0);
  }
  tracer.SetActive(false);
  // Read-back spans follow the timed ones; parents are indices.
  std::vector<Span> all_spans = spans;
  for (Span span : tracer.Take()) {
    if (span.parent >= 0) span.parent += static_cast<int64_t>(spans.size());
    all_spans.push_back(span);
  }
  probes.Add(probe_begin, exec.compact_store()->stats());
  const TimingEnv::Counts after_readback = env.counts();

  rec.Note(exec.CompactStorage());
  exec.Stop();
  const uint64_t stored_bytes = DirBytes(db_dir);
  setup.exec.reset();
  {
    // The oracle restarts the system on <dir>/db.
    std::error_code ec;
    std::filesystem::rename(db_dir, args.dir + "/db", ec);
    if (ec) {
      std::cerr << "e2e_bench: cannot keep the final database: " << ec.message()
                << "\n";
      return 1;
    }
    // The other directories, kept until the measured phases were over.
    std::filesystem::remove_all(final_dir, ec);
    for (int r = 0; r + 1 < kRounds; ++r) std::filesystem::remove_all(round_dir(r), ec);
    for (int i = 0; i + 1 < kRecoveries; ++i) {
      std::filesystem::remove_all(args.dir + "/recover-" + std::to_string(i), ec);
    }
  }

  {
    // The last round's answers, then the read-back's, for the oracle.
    std::ofstream out(args.dir + "/answers.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(rec.answers.data()),
              static_cast<std::streamsize>(rec.answers.size() * sizeof(uint64_t)));
    if (!out) {
      std::cerr << "e2e_bench: cannot write answers\n";
      return 1;
    }
  }

  if (args.trace) {
    // One span per line; run.py keeps the file after the run directory goes.
    std::ofstream out(args.dir + "/trace.jsonl");
    for (const Span& span : all_spans) {
      out << "{\"name\": \"" << span.name << "\", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request << "}\n";
    }
  }

  // --- Metrics. ---------------------------------------------------------------
  const uint64_t timed_ops = kRounds * in.ops.size();
  const uint64_t attempted =
      kRounds * (in.warmup.size() + in.ops.size()) + readback.size();
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  Metrics metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("op_p50_us", Median(rec.round_p50_us), "us");
    metrics.Add("recover_s", Median(recover_s), "s");
    metrics.Add("peak_rss_mb", Median(peak_rss_mb), "MB");
    metrics.Add("stored_bytes_per_txn",
                static_cast<double>(stored_bytes) / static_cast<double>(final_txn),
                "B/txn");
  } else {
    // Layer times over every traced operation, read-back included (it is
    // the only user of some read paths on some workloads); the coverage
    // check over the timed operations alone.
    const SpanSummary timed = Summarize(spans);
    SpanSummary summary = Summarize(all_spans);
    for (const char* name :
         {"quel.compile", "lang.parse", "lang.analyze", "optimizer.optimize",
          "lang.eval", "rollback.session_open", "rollback.rho",
          "rollback.session_release", "compact.probe",
          "rollback.submit_to_ack", "rollback.commit_self", "storage.sync",
          "storage.append"}) {
      std::vector<double>& us = summary.self_us[name];
      metrics.Add(std::string(name) + "_us.p50", Percentile(us, 0.50), "us");
      metrics.Add(std::string(name) + "_us.p99", Percentile(us, 0.99), "us");
      metrics.Add(std::string(name) + "_us.n", static_cast<double>(us.size()),
                  "count");
    }
    metrics.Add("compact.probe_cache_hit_ratio", ratio(probes.hits, probes.probes),
                "ratio");
    metrics.Add("compact.decoded_entries_per_probe",
                ratio(probes.decoded, probes.probes), "count");
    metrics.Add("rollback.commits_per_batch", ratio(commit.commits, commit.batches),
                "count");
    metrics.Add("rollback.fsyncs_per_commit", ratio(commit.wal_syncs, commit.commits),
                "count");
    metrics.Add("storage.sync_busy_s", Seconds(static_cast<int64_t>(commit.sync_ns)),
                "s");
    metrics.Add("storage.appended_bytes_per_commit",
                ratio(commit.append_bytes, commit.commits), "B");
    metrics.Add("storage.read_bytes",
                static_cast<double>(after_readback.read_bytes - after_timed.read_bytes),
                "B");
    metrics.Add("rollback.start_s", Median(start_s), "s");
    metrics.Add("rollback.replayed_batches", static_cast<double>(replayed_batches),
                "count");
    metrics.Add("harness.generate_s", Median(generate_s), "s");
    metrics.Add("harness.load_s", Median(load_s), "s");
    // The end-to-end figures too unsteady on a shared disk to bound.
    std::vector<double> untraced = rec.latency_us;
    metrics.Add("e2e.ops_per_s",
                static_cast<double>(timed_ops) / Seconds(rec.timed_ns), "1/s");
    metrics.Add("e2e.op_p99_us", Percentile(untraced, 0.99), "us");
    std::vector<double> traced = rec.traced_latency_us;
    metrics.Add("trace.op_us.p50", Percentile(traced, 0.5), "us");
    metrics.Add("trace.untraced_op_us.p50", Percentile(untraced, 0.5), "us");
    metrics.Add("trace.overhead_us_per_op",
                Percentile(traced, 0.5) - Percentile(untraced, 0.5), "us");
    metrics.Add("trace.coverage_ratio", ratio(timed.covered_ns, timed.op_wall_ns),
                "ratio");
  }

  std::string round_p50s;
  for (double us : rec.round_p50_us) {
    round_p50s += (round_p50s.empty() ? "" : ", ") + JsonNumber(us);
  }
  std::ostringstream info;
  info << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu\": " << JsonString(CpuModel())
       << ", \"filesystem\": " << JsonString(FilesystemOf(args.dir))
       << ", \"build_type\": " << JsonString(E2E_BUILD_TYPE)
       << ", \"host_cpu_probe_ms\": " << JsonNumber(host.cpu_ms)
       << ", \"host_fsync_p50_us\": " << JsonNumber(host.fsync_p50_us)
       << ", \"input_digest\": \"" << std::hex << in.input_digest << std::dec
       << "\", \"answers_digest\": \"" << std::hex
       << Digest(std::string_view(reinterpret_cast<const char*>(rec.answers.data()),
                                  rec.answers.size() * sizeof(uint64_t)))
       << std::dec << "\", \"final_txn\": " << final_txn
       << ", \"stored_bytes\": " << stored_bytes
       << ", \"rounds\": " << kRounds << ", \"ops_per_round\": " << in.ops.size()
       << ", \"round_p50_us\": [" << round_p50s << "]"
       << ", \"op_samples\": " << rec.latency_us.size()
       << ", \"traced_samples\": " << rec.traced_latency_us.size()
       << ", \"recoveries\": " << kRecoveries
       << ", \"ops_per_s\": " << JsonNumber(static_cast<double>(timed_ops) /
                                            Seconds(rec.timed_ns))
       << ", \"op_p99_us\": " << JsonNumber(Percentile(rec.latency_us, 0.99))
       << ", \"identity_failures\": " << commit.identity_failures << "}";
  std::cout << "{\"attempted\": " << attempted
            << ", \"errors\": " << rec.errors + commit.identity_failures + round_mismatches
            << ", \"metrics\": " << metrics.Json()
            << ", \"info\": " << info.str() << "}" << std::endl;
  return 0;
}

/// Applies one update op through the paper's serial semantics.
Status ApplySerial(const Op& op, Database& db) {
  if (IsQuel(op.kind)) {
    TTRA_ASSIGN_OR_RETURN(quel::QuelStmt q, quel::ParseQuel(op.text));
    TTRA_ASSIGN_OR_RETURN(lang::Stmt stmt,
                          quel::CompileQuel(q, lang::Catalog(db)));
    return lang::ExecStmt(stmt, db);
  }
  TTRA_ASSIGN_OR_RETURN(lang::Stmt stmt, lang::ParseStmt(op.text));
  return lang::ExecStmt(stmt, db);
}

int RunOracle(const Args& args) {
  const Inputs in = Generate(args.workload, args.seed, args.seconds);
  std::vector<uint64_t> answers;
  {
    std::ifstream file(args.dir + "/answers.bin", std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    answers.resize(bytes.size() / sizeof(uint64_t));
    std::memcpy(answers.data(), bytes.data(), answers.size() * sizeof(uint64_t));
  }
  SerialExecutor serial;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  size_t next = 0;
  // An answer of 0 marks an operation the system failed; it is already
  // counted as an error there.
  auto compare = [&](const Result<uint64_t>& expected) {
    ++checked;
    if (next >= answers.size()) {
      ++mismatches;
      return;
    }
    const uint64_t got = answers[next++];
    if (got != 0 && (!expected.ok() || *expected != got)) ++mismatches;
  };
  serial.Submit([&](Database& db) { return ApplySentence(db, in.preload); })
      .status()
      .IgnoreError();  // a failed command is replayed as a no-op on both sides
  const TransactionNumber preload_txn = serial.transaction_number();
  auto query = [&](const Op& op) {
    serial.Read([&](const Database& db) {
      compare(OracleAnswer(op, db));
      return Status::Ok();
    }).IgnoreError();
  };
  for (const Op& op : in.warmup) query(op);
  for (const Op& op : in.ops) {
    if (!IsUpdate(op.kind)) {
      query(op);
      continue;
    }
    serial.Submit([&](Database& db) {
      if (op.kind != OpKind::kConstModify) compare(OracleCurrent(op, db));
      return ApplySerial(op, db);
    }).status().IgnoreError();
  }
  const bool ingest = args.workload == Workload::kIngestPipelined;
  for (const Op& op : ReadbackOps(args.workload, args.seed, in.sizes.readback,
                                  in.sizes.ingest_relations,
                                  ingest ? preload_txn : 7,
                                  serial.transaction_number())) {
    query(op);
  }
  if (next != answers.size()) ++mismatches;

  // The restarted database must be byte-equal to the serial replay.
  ShardedExecutor exec(Env::Default(), args.dir + "/db", ExecutorOptions());
  Status started = exec.Start();
  ++checked;
  if (!started.ok()) {
    std::cerr << "e2e_bench oracle: restart failed: " << started.ToString() << "\n";
    ++mismatches;
  } else {
    if (EncodeDatabase(exec.Snapshot()) != EncodeDatabase(serial.Snapshot())) {
      std::cerr << "e2e_bench oracle: restarted database differs from the "
                   "serial replay\n";
      ++mismatches;
    }
    exec.Stop();
  }
  std::cout << "{\"checked\": " << checked << ", \"mismatches\": " << mismatches
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: e2e_bench sut|oracle --workload txn_long_history|"
                 "ingest_pipelined|asof_query --seed N --seconds N "
                 "[--trace 0|1] --dir DIR\n";
    return 2;
  }
  return args.mode == "sut" ? e2e::RunSut(args) : e2e::RunOracle(args);
}
