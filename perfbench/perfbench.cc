// perfbench: runs one benchmark workload of the split-level I/O
// simulator and prints its measurements as one JSON line.
//
//   perfbench --workload randread-ssd|fsync-mix|hdfs-sharded
//                    --seed N --seconds S [--trace 0|1] [--size full|tiny]
//                    [--rounds N] [--spans FILE]
//
// A run is a sequence of identical *rounds*. Each round builds the
// simulated system from scratch (set-up: stack construction, file
// preallocation and a simulated warm-up) and then runs a fixed simulated
// horizon (the timed phase). After one process warm-up round, whose host
// figures are dropped, rounds repeat until their timed phases have used
// --seconds of host time (at least kMinRounds; --rounds N runs exactly N),
// and every reported host figure is the median over rounds. Every round
// folds its simulated output into a digest; all rounds of a run must agree,
// and a tiny reference round with the default seed runs first so its digest
// can be compared with the pinned one (perfbench/pinned_digests.json,
// checked by run.py).
//
// Every workload is a closed loop in simulated time: each simulated process
// waits for its system call to return before it issues the next one, plus
// an optional think time. The untraced rounds run on one host thread.
//
// --trace 1 adds one traced round after the untraced ones: the scheduler is
// wrapped in a decorator that times every hook and elevator call, client
// loops record op spans, and the spans are written to --spans at exit. The
// traced round must reproduce the untraced digest. For hdfs-sharded it also
// adds a round on a pool of min(4, nproc) threads, which must reproduce the
// one-thread digest with zero causality violations.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/dfs_sharded.h"
#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/metrics/counters.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace splitio::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 1;
constexpr int kMinRounds = 3;
constexpr uint64_t kPage = 4096;
constexpr size_t kSpanCap = 200000;

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Nanos SimNow() { return Simulator::current().Now(); }

// FNV-1a over 64-bit words: the round's simulated output.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Every simulated counter; `allocs` is a host-side count and stays out.
void AddCounters(Digest* d, const Counters& c) {
  for (uint64_t v :
       {c.sim_events, c.sim_immediate, c.cache_lookups, c.cache_hits,
        c.pages_dirtied, c.block_submitted, c.block_merged, c.block_completed,
        c.device_flushes, c.faults_injected, c.wb_errors, c.journal_commits,
        c.wb_pages_flushed, c.mq_kicks, c.device_busy_ns}) {
    d->Add(v);
  }
}

// Failures no client sees returned: writeback errors and injected faults.
uint64_t UnseenFailures(const Counters& c) {
  return c.wb_errors + c.faults_injected;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  Nanos sim_start = 0;
  Nanos sim_end = 0;
  int64_t host_ns = -1;  // synchronous calls only
  int64_t allocs = -1;   // synchronous calls only
};

// Host cost of the synchronous calls into one layer.
struct LayerCost {
  uint64_t calls = 0;
  uint64_t timed_calls = 0;  // calls whose host time is known
  int64_t host_ns = 0;
  uint64_t allocs = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(kSpanCap); }

  uint64_t NewId() { return ++next_id_; }

  void Record(const Span& s) {
    ++recorded_;
    if (spans_.size() < kSpanCap) {
      spans_.push_back(s);
    }
  }

  // The op a process is executing (0 = none), so hook spans can name it.
  void RegisterPid(int32_t pid) { op_of_pid_[pid] = 0; }
  void SetOp(int32_t pid, uint64_t op) { op_of_pid_[pid] = op; }
  uint64_t OpOf(int32_t pid) const {
    auto it = op_of_pid_.find(pid);
    return it == op_of_pid_.end() ? 0 : it->second;
  }
  uint64_t OpOfRequest(const BlockRequest* req) const {
    return req != nullptr && req->submitter != nullptr
               ? OpOf(req->submitter->pid())
               : 0;
  }

  uint64_t phase = 0;  // span id of the current set-up/timed phase
  LayerCost sched;
  LayerCost block;
  uint64_t entry_calls = 0;
  Nanos entry_wait = 0;  // simulated time callers spent in entry hooks

  uint64_t recorded() const { return recorded_; }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f,
                 "name\tid\tparent\top\tsim_start_ns\tsim_end_ns\thost_ns\t"
                 "allocs\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%lld\t%lld\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.sim_start),
                   static_cast<long long>(s.sim_end),
                   static_cast<long long>(s.host_ns),
                   static_cast<long long>(s.allocs));
    }
    return std::fclose(f) == 0;
  }

 private:
  uint64_t next_id_ = 0;
  uint64_t recorded_ = 0;
  std::vector<Span> spans_;
  std::unordered_map<int32_t, uint64_t> op_of_pid_;
};

// Host time and exact allocation count of one synchronous call.
struct Probe {
  int64_t t0 = HostNs();
  uint64_t a0 = counters().allocs;
  int64_t ns() const { return HostNs() - t0; }
  uint64_t allocs() const { return counters().allocs - a0; }
};

// Decorator around a split scheduler (which is also the stack's block
// elevator): forwards every hook unchanged and charges its host time and
// allocations to the sched (split hooks) or block (elevator calls) layer.
class TracedScheduler : public SplitScheduler {
 public:
  TracedScheduler(std::unique_ptr<SplitScheduler> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool mq_aware() const override { return inner_->mq_aware(); }
  void Attach(const StackContext& ctx) override {
    SplitScheduler::Attach(ctx);
    inner_->Attach(ctx);
  }

  // ---- Elevator ----
  bool TryMerge(const BlockRequestPtr& req) override {
    const uint64_t op = tracer_->OpOfRequest(req.get());
    return Sync(&tracer_->block, "block.try_merge", op,
                [&] { return inner_->TryMerge(req); });
  }
  void Add(BlockRequestPtr req) override {
    const uint64_t op = tracer_->OpOfRequest(req.get());
    Sync(&tracer_->block, "block.add", op,
         [&] { inner_->Add(std::move(req)); });
  }
  BlockRequestPtr Next() override {
    Probe p;
    BlockRequestPtr req = inner_->Next();
    Charge(&tracer_->block, "block.next", tracer_->OpOfRequest(req.get()), p);
    return req;
  }
  void OnComplete(const BlockRequest& req) override {
    Sync(&tracer_->block, "block.complete", tracer_->OpOfRequest(&req),
         [&] { inner_->OnComplete(req); });
  }
  Nanos IdleHint() const override {
    return Sync(&tracer_->block, "block.idle_hint", 0,
                [&] { return inner_->IdleHint(); });
  }
  void OnIdleExpired() override {
    Sync(&tracer_->block, "block.idle_expired", 0,
         [&] { inner_->OnIdleExpired(); });
  }
  bool Empty() const override {
    return Sync(&tracer_->block, "block.empty", 0,
                [&] { return inner_->Empty(); });
  }

  // ---- Split hooks ----
  Task<void> OnWriteEntry(Process& proc, int64_t ino, uint64_t offset,
                          uint64_t len) override {
    Probe p;
    Task<void> t = inner_->OnWriteEntry(proc, ino, offset, len);
    return Entry("sched.write_entry", proc, std::move(t), p.ns(), p.allocs());
  }
  Task<void> OnReadEntry(Process& proc, int64_t ino, uint64_t offset,
                         uint64_t len) override {
    Probe p;
    Task<void> t = inner_->OnReadEntry(proc, ino, offset, len);
    return Entry("sched.read_entry", proc, std::move(t), p.ns(), p.allocs());
  }
  Task<void> OnFsyncEntry(Process& proc, int64_t ino) override {
    Probe p;
    Task<void> t = inner_->OnFsyncEntry(proc, ino);
    return Entry("sched.fsync_entry", proc, std::move(t), p.ns(), p.allocs());
  }
  Task<void> OnMetaEntry(Process& proc, MetaOp op,
                         const std::string& path) override {
    Probe p;
    Task<void> t = inner_->OnMetaEntry(proc, op, path);
    return Entry("sched.meta_entry", proc, std::move(t), p.ns(), p.allocs());
  }
  void OnWriteExit(Process& proc, int64_t ino, uint64_t len) override {
    Sync(&tracer_->sched, "sched.write_exit", tracer_->OpOf(proc.pid()),
         [&] { inner_->OnWriteExit(proc, ino, len); });
  }
  void OnReadExit(Process& proc, int64_t ino, uint64_t len) override {
    Sync(&tracer_->sched, "sched.read_exit", tracer_->OpOf(proc.pid()),
         [&] { inner_->OnReadExit(proc, ino, len); });
  }
  void OnFsyncExit(Process& proc, int64_t ino) override {
    Sync(&tracer_->sched, "sched.fsync_exit", tracer_->OpOf(proc.pid()),
         [&] { inner_->OnFsyncExit(proc, ino); });
  }
  void OnBufferDirty(Process& dirtier, Page& page, bool was_dirty,
                     const CauseSet& prev) override {
    Sync(&tracer_->sched, "sched.buffer_dirty", tracer_->OpOf(dirtier.pid()),
         [&] { inner_->OnBufferDirty(dirtier, page, was_dirty, prev); });
  }
  void OnBufferFree(Page& page) override {
    Sync(&tracer_->sched, "sched.buffer_free", 0,
         [&] { inner_->OnBufferFree(page); });
  }
  void OnBlockComplete(const BlockRequest& req) override {
    Sync(&tracer_->sched, "sched.block_complete", tracer_->OpOfRequest(&req),
         [&] { inner_->OnBlockComplete(req); });
  }

 private:
  void Charge(LayerCost* layer, const char* name, uint64_t op,
              const Probe& p) const {
    const int64_t ns = p.ns();
    const uint64_t allocs = p.allocs();
    ++layer->calls;
    ++layer->timed_calls;
    layer->host_ns += ns;
    layer->allocs += allocs;
    const Nanos now = SimNow();
    tracer_->Record({name, tracer_->NewId(), op != 0 ? op : tracer_->phase,
                     op, now, now, ns, static_cast<int64_t>(allocs)});
  }

  template <typename Fn>
  std::invoke_result_t<Fn&> Sync(LayerCost* layer, const char* name,
                                 uint64_t op, Fn&& fn) const {
    Probe p;
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Charge(layer, name, op, p);
    } else {
      auto result = fn();
      Charge(layer, name, op, p);
      return result;
    }
  }

  // Entry hooks may block the caller in simulated time. Their host time is
  // counted only when the hook ran to completion without yielding (no other
  // simulated event ran meanwhile); the simulated wait is always recorded.
  Task<void> Entry(const char* name, Process& proc, Task<void> inner,
                   int64_t create_ns, uint64_t create_allocs) {
    const Nanos sim_start = SimNow();
    const uint64_t events_before = counters().sim_events;
    Probe p;
    co_await std::move(inner);
    const bool ran_through = counters().sim_events == events_before;
    const int64_t ns = create_ns + p.ns();
    const uint64_t allocs = create_allocs + p.allocs();
    LayerCost& layer = tracer_->sched;
    ++layer.calls;
    ++tracer_->entry_calls;
    tracer_->entry_wait += SimNow() - sim_start;
    const uint64_t op = tracer_->OpOf(proc.pid());
    Span s{name, tracer_->NewId(), op != 0 ? op : tracer_->phase, op,
           sim_start, SimNow(), -1, -1};
    if (ran_through) {
      ++layer.timed_calls;
      layer.host_ns += ns;
      layer.allocs += allocs;
      s.host_ns = ns;
      s.allocs = static_cast<int64_t>(allocs);
    }
    tracer_->Record(s);
  }

  std::unique_ptr<SplitScheduler> inner_;
  Tracer* tracer_;
};

// Times one set-up or timed phase (host seconds, exact allocations) and, in
// a traced round, records it as the parent span of everything inside it.
class Phase {
 public:
  Phase(Tracer* tracer, const char* name, Nanos sim_start)
      : tracer_(tracer), name_(name), sim_start_(sim_start) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NewId();
      tracer_->phase = id_;
    }
    probe_ = Probe();
  }

  double End(Nanos sim_end) {
    const int64_t ns = probe_.ns();
    allocs_ = probe_.allocs();
    if (tracer_ != nullptr) {
      tracer_->Record({name_, id_, 0, 0, sim_start_, sim_end, ns,
                       static_cast<int64_t>(allocs_)});
      tracer_->phase = 0;
    }
    return static_cast<double>(ns) / 1e9;
  }
  uint64_t allocs() const { return allocs_; }

 private:
  Tracer* tracer_;
  const char* name_;
  Nanos sim_start_;
  uint64_t id_ = 0;
  uint64_t allocs_ = 0;
  Probe probe_;
};

// ---------------------------------------------------------------------------
// Client side: the benchmark's own closed loops around each OsKernel call.

enum OpKind { kRead, kWrite, kFsync, kCreat, kNumKinds };
constexpr const char* kKindName[kNumKinds] = {"read", "write", "fsync",
                                              "creat"};
constexpr const char* kOpSpanName[kNumKinds] = {"op.read", "op.write",
                                                "op.fsync", "op.creat"};

// Folds every completed op into the round's digest and counts it; in a
// traced round also keeps its simulated latency and records its span.
class OpLog {
 public:
  explicit OpLog(Tracer* tracer) : tracer_(tracer) {}

  uint64_t Begin(Process& p) {
    if (tracer_ == nullptr) {
      return 0;
    }
    const uint64_t op = tracer_->NewId();
    tracer_->SetOp(p.pid(), op);
    return op;
  }

  void End(OpKind kind, Process& p, uint64_t op, Nanos start, int64_t result,
           bool ok) {
    const Nanos end = SimNow();
    digest_.Add(static_cast<uint64_t>(kind));
    digest_.Add(static_cast<uint64_t>(p.pid()));
    digest_.Add(static_cast<uint64_t>(start));
    digest_.Add(static_cast<uint64_t>(end));
    digest_.Add(static_cast<uint64_t>(result));
    ++count_[kind];
    ++ops_;
    if (!ok) {
      ++failed_;
    }
    if (tracer_ != nullptr) {
      latency_[kind].push_back(end - start);
      tracer_->SetOp(p.pid(), 0);
      tracer_->Record({kOpSpanName[kind], op, tracer_->phase, op, start, end,
                       -1, -1});
    }
  }

  uint64_t ops() const { return ops_; }
  uint64_t failed() const { return failed_; }
  uint64_t count(int kind) const { return count_[kind]; }
  const Digest& digest() const { return digest_; }
  double P99Ms(int kind) {
    std::vector<Nanos>& v = latency_[kind];
    if (v.empty()) {
      return 0;
    }
    // Nearest rank, as LatencyRecorder::Percentile.
    const size_t rank = (v.size() * 99 + 99) / 100;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                     v.end());
    return ToMillis(v[rank - 1]);
  }

 private:
  Tracer* tracer_;
  Digest digest_;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t count_[kNumKinds] = {};
  std::vector<Nanos> latency_[kNumKinds];
};

Task<void> RandomReadLoop(OpLog& log, OsKernel& kernel, Process& p,
                          int64_t ino, uint64_t file_bytes, uint64_t seed,
                          Nanos think, Nanos until) {
  Rng rng(seed);
  const uint64_t slots = file_bytes / kPage;
  while (SimNow() < until) {
    const uint64_t offset = rng.Below(slots) * kPage;
    const uint64_t op = log.Begin(p);
    const Nanos start = SimNow();
    const int64_t n = co_await kernel.Read(p, ino, offset, kPage);
    log.End(kRead, p, op, start, n, n == static_cast<int64_t>(kPage));
    if (think > 0) {
      co_await Delay(think);
    }
  }
}

Task<void> RandomOverwriteLoop(OpLog& log, OsKernel& kernel, Process& p,
                               int64_t ino, uint64_t file_bytes,
                               uint64_t seed, Nanos think, Nanos until) {
  Rng rng(seed);
  const uint64_t slots = file_bytes / kPage;
  while (SimNow() < until) {
    const uint64_t offset = rng.Below(slots) * kPage;
    const uint64_t op = log.Begin(p);
    const Nanos start = SimNow();
    const int64_t n = co_await kernel.Write(p, ino, offset, kPage);
    log.End(kWrite, p, op, start, n, n == static_cast<int64_t>(kPage));
    co_await Delay(think);
  }
}

// Database-log pattern: append one page, fsync, think.
Task<void> AppendFsyncLoop(OpLog& log, OsKernel& kernel, Process& p,
                           int64_t ino, Nanos think, Nanos until) {
  uint64_t offset = 0;
  while (SimNow() < until) {
    uint64_t op = log.Begin(p);
    Nanos start = SimNow();
    const int64_t n = co_await kernel.Write(p, ino, offset, kPage);
    log.End(kWrite, p, op, start, n, n == static_cast<int64_t>(kPage));
    offset += kPage;
    op = log.Begin(p);
    start = SimNow();
    const int rc = co_await kernel.Fsync(p, ino);
    log.End(kFsync, p, op, start, rc, rc == 0);
    co_await Delay(think);
  }
}

// Checkpoint pattern: `nbytes` of random `block`-sized writes, one fsync,
// then a pause.
Task<void> CheckpointLoop(OpLog& log, OsKernel& kernel, Process& p,
                          int64_t ino, uint64_t file_bytes, uint64_t nbytes,
                          uint64_t block, uint64_t seed, Nanos pause,
                          Nanos until) {
  Rng rng(seed);
  const uint64_t slots = file_bytes / block;
  while (SimNow() < until) {
    for (uint64_t done = 0; done < nbytes && SimNow() < until;
         done += block) {
      const uint64_t op = log.Begin(p);
      const Nanos start = SimNow();
      const int64_t n =
          co_await kernel.Write(p, ino, rng.Below(slots) * block, block);
      log.End(kWrite, p, op, start, n, n == static_cast<int64_t>(block));
    }
    const uint64_t op = log.Begin(p);
    const Nanos start = SimNow();
    const int rc = co_await kernel.Fsync(p, ino);
    log.End(kFsync, p, op, start, rc, rc == 0);
    co_await Delay(pause);
  }
}

// ---------------------------------------------------------------------------
// Rounds.

// One round's measurements. Host figures are for this round alone; the
// counter block covers the timed phase.
struct Round {
  uint64_t digest = 0;
  double build_s = 0;
  double prealloc_s = 0;
  double warmup_s = 0;
  double timed_s = 0;
  uint64_t build_allocs = 0;
  uint64_t prealloc_allocs = 0;
  uint64_t timed_ops = 0;
  Counters timed;
  Nanos warmup = 0;   // simulated length of the warm-up
  Nanos horizon = 0;  // simulated length of the timed phase
  int devices = 1;
  // Whole round (set-up, warm-up and timed phase). `failed` adds the
  // counters' unseen failures to the ops that returned an error.
  uint64_t kind_count[kNumKinds] = {};
  uint64_t ops = 0;
  uint64_t failed = 0;
  double p99_ms[kNumKinds] = {};  // traced rounds only
  ShardRunStats shard;            // timed phase (hdfs-sharded)
  uint64_t violations = 0;        // whole round (hdfs-sharded)

  double setup_s() const { return build_s + prealloc_s + warmup_s; }
};

// The workload sizes. `Full` is the benchmark; `Tiny` is the self-test.
struct RandReadSize {
  uint64_t file_bytes;
  int readers;
  Nanos warmup;
  Nanos horizon;
};
constexpr RandReadSize kRandReadFull{16ULL << 30, 64, Msec(1000), Msec(3000)};
constexpr RandReadSize kRandReadTiny{2ULL << 30, 8, Msec(20), Msec(50)};

struct FsyncMixSize {
  int readers;
  int overwriters;
  int loggers;
  uint64_t hot_bytes;
  uint64_t overwrite_bytes;
  uint64_t checkpoint_bytes;
  uint64_t checkpoint_write;
  Nanos warmup;
  Nanos horizon;
};
constexpr FsyncMixSize kFsyncMixFull{8,         4,         4,
                                     256ULL << 20, 512ULL << 20, 1ULL << 30,
                                     16ULL << 20,  Msec(5000), Msec(15000)};
constexpr FsyncMixSize kFsyncMixTiny{2,         2,         2,
                                     16ULL << 20, 32ULL << 20, 64ULL << 20,
                                     1ULL << 20,  Msec(200),  Msec(5500)};

struct HdfsSize {
  int workers;
  int clients_per_group;
  Nanos warmup;
  Nanos horizon;
};
// 32 workers keep the exchange's per-epoch scan of (workers + 1)^2 outbox
// lanes inside a core's L1; at 300 its timing followed the host's shared
// cache and was too noisy to compare (README, "Why 32 workers").
constexpr HdfsSize kHdfsFull{32, 16, Msec(3000), Msec(6000)};
constexpr HdfsSize kHdfsTiny{12, 2, Msec(20), Msec(200)};

// fsync-mix think times and token budget.
constexpr Nanos kReaderThink = Usec(200);
constexpr Nanos kOverwriterThink = Usec(100);
constexpr Nanos kLoggerThink = Msec(2);
constexpr Nanos kCheckpointPause = Msec(1000);
constexpr uint64_t kCheckpointBlock = 256ULL << 10;
constexpr int kWriterAccount = 1;
constexpr double kWriterBudget = 32.0 * 1024 * 1024;  // bytes/s
// hdfs-sharded: throttled clients' account and budget.
constexpr double kHdfsCapBytes = 8.0 * 1024 * 1024;
constexpr uint64_t kHdfsChunk = 1ULL << 20;

// Builds one stack; in a traced round the scheduler goes in wrapped.
// Returns the undecorated scheduler through `inner`.
std::unique_ptr<StorageStack> BuildStack(const StackConfig& config,
                                         SchedKind kind, CpuModel* cpu,
                                         Tracer* tracer,
                                         ComposedScheduler** inner) {
  SchedInstance inst = MakeSched(kind);
  *inner = dynamic_cast<ComposedScheduler*>(inst.split.get());
  std::unique_ptr<SplitScheduler> sched = std::move(inst.split);
  if (tracer != nullptr) {
    sched = std::make_unique<TracedScheduler>(std::move(sched), tracer);
  }
  auto stack =
      std::make_unique<StorageStack>(config, cpu, std::move(sched), nullptr);
  stack->Start();
  return stack;
}

Process* NewProc(StorageStack& stack, const std::string& name,
                 Tracer* tracer) {
  Process* p = stack.NewProcess(name);
  if (tracer != nullptr) {
    tracer->RegisterPid(p->pid());
  }
  return p;
}

// Runs the warm-up and the timed phase of a single-stack round and fills
// the round from the op log and the counters.
void RunPhases(Simulator& sim, OpLog& log, Tracer* tracer, Nanos warmup,
               Nanos horizon, const Counters& round_start, Round* r) {
  Phase warm(tracer, "setup.warmup", 0);
  sim.Run(warmup);
  r->warmup_s = warm.End(warmup);

  const uint64_t ops0 = log.ops();
  const Counters c0 = counters();
  Phase timed(tracer, "timed", warmup);
  sim.Run(warmup + horizon);
  r->timed_s = timed.End(warmup + horizon);
  r->timed = counters().Delta(c0);
  r->timed_ops = log.ops() - ops0;
  r->warmup = warmup;
  r->horizon = horizon;

  const Counters whole = counters().Delta(round_start);
  Digest d = log.digest();
  AddCounters(&d, whole);
  r->digest = d.value();
  for (int k = 0; k < kNumKinds; ++k) {
    r->kind_count[k] = log.count(k);
    if (tracer != nullptr) {
      r->p99_ms[k] = log.P99Ms(k);
    }
  }
  r->ops = log.ops();
  r->failed = log.failed() + UnseenFailures(whole);
}

// randread-ssd: ext4 on SSD, split-noop, blk-mq with 4 hardware contexts of
// depth 8 over an 8-channel device; sync 4 KiB random readers over one
// preallocated file 16x the 1 GiB clean cache.
Round RunRandRead(const RandReadSize& sz, uint64_t seed, Tracer* tracer) {
  Round r;
  const Counters round_start = counters();
  Simulator sim;
  OpLog log(tracer);

  Phase build(tracer, "setup.stack_build", 0);
  auto cpu = std::make_unique<CpuModel>(8);
  StackConfig config;
  config.device = StackConfig::DeviceKind::kSsd;
  config.ssd.channels = 8;
  config.mq.enabled = true;
  config.mq.nr_hw_queues = 4;
  config.mq.queue_depth = 8;
  ComposedScheduler* inner = nullptr;
  auto stack =
      BuildStack(config, SchedKind::kSplitNoop, cpu.get(), tracer, &inner);
  r.build_s = build.End(0);
  r.build_allocs = build.allocs();

  Phase prealloc(tracer, "setup.prealloc", 0);
  const int64_t ino = stack->fs().CreatePreallocated("/data", sz.file_bytes);
  r.prealloc_s = prealloc.End(0);
  r.prealloc_allocs = prealloc.allocs();

  Rng seeds(seed);
  const Nanos until = sz.warmup + sz.horizon;
  for (int i = 0; i < sz.readers; ++i) {
    Process* p = NewProc(*stack, "reader" + std::to_string(i), tracer);
    sim.Spawn(RandomReadLoop(log, stack->kernel(), *p, ino, sz.file_bytes,
                             seeds.Next(), 0, until));
  }
  RunPhases(sim, log, tracer, sz.warmup, sz.horizon, round_start, &r);
  return r;
}

// fsync-mix set-up and process launch, run as the first simulated thread:
// creates the log files, pulls the hot region into the cache, then starts
// every closed loop.
struct FsyncMix {
  const FsyncMixSize& sz;
  OpLog& log;
  StorageStack& stack;
  Tracer* tracer;
  int64_t hot = 0;
  int64_t overwrite = 0;
  int64_t checkpoint = 0;
  uint64_t seed = 0;
  Nanos until = 0;

  Task<void> Main() {
    OsKernel& k = stack.kernel();
    Simulator& sim = Simulator::current();
    Rng seeds(seed);
    std::vector<int64_t> logs;
    for (int i = 0; i < sz.loggers; ++i) {
      Process* p = NewProc(stack, "logger" + std::to_string(i), tracer);
      const uint64_t op = log.Begin(*p);
      const Nanos start = SimNow();
      const int64_t ino = co_await k.Creat(*p, "/log" + std::to_string(i));
      log.End(kCreat, *p, op, start, ino, ino >= 0);
      sim.Spawn(AppendFsyncLoop(log, k, *p, ino, kLoggerThink, until));
    }
    Process* fill = NewProc(stack, "cache-fill", tracer);
    constexpr uint64_t kFillIo = 1ULL << 20;
    for (uint64_t off = 0; off < sz.hot_bytes; off += kFillIo) {
      const uint64_t op = log.Begin(*fill);
      const Nanos start = SimNow();
      const int64_t n = co_await k.Read(*fill, hot, off, kFillIo);
      log.End(kRead, *fill, op, start, n, n == static_cast<int64_t>(kFillIo));
    }
    for (int i = 0; i < sz.readers; ++i) {
      Process* p = NewProc(stack, "reader" + std::to_string(i), tracer);
      sim.Spawn(RandomReadLoop(log, k, *p, hot, sz.hot_bytes, seeds.Next(),
                               kReaderThink, until));
    }
    for (int i = 0; i < sz.overwriters; ++i) {
      Process* p = NewProc(stack, "writer" + std::to_string(i), tracer);
      sim.Spawn(RandomOverwriteLoop(log, k, *p, overwrite, sz.overwrite_bytes,
                                    seeds.Next(), kOverwriterThink, until));
    }
    Process* ckpt = NewProc(stack, "checkpoint", tracer);
    ckpt->set_account(kWriterAccount);
    sim.Spawn(CheckpointLoop(log, k, *ckpt, checkpoint, sz.checkpoint_bytes,
                             sz.checkpoint_write, kCheckpointBlock,
                             seeds.Next(), kCheckpointPause, until));
  }
};

// fsync-mix: ext4 (ordered mode, no durability barriers) on SSD,
// split-token, legacy single-queue block layer, default dirty ratios.
Round RunFsyncMix(const FsyncMixSize& sz, uint64_t seed, Tracer* tracer) {
  Round r;
  const Counters round_start = counters();
  Simulator sim;
  OpLog log(tracer);

  Phase build(tracer, "setup.stack_build", 0);
  auto cpu = std::make_unique<CpuModel>(8);
  StackConfig config;
  config.device = StackConfig::DeviceKind::kSsd;
  ComposedScheduler* inner = nullptr;
  auto stack =
      BuildStack(config, SchedKind::kSplitToken, cpu.get(), tracer, &inner);
  inner->SetAccountLimit(kWriterAccount, kWriterBudget);
  r.build_s = build.End(0);
  r.build_allocs = build.allocs();

  FsyncMix mix{sz, log, *stack, tracer};
  Phase prealloc(tracer, "setup.prealloc", 0);
  mix.hot = stack->fs().CreatePreallocated("/hot", sz.hot_bytes);
  mix.overwrite = stack->fs().CreatePreallocated("/overwrite",
                                                 sz.overwrite_bytes);
  mix.checkpoint = stack->fs().CreatePreallocated("/checkpoint",
                                                  sz.checkpoint_bytes);
  r.prealloc_s = prealloc.End(0);
  r.prealloc_allocs = prealloc.allocs();

  mix.seed = seed;
  mix.until = sz.warmup + sz.horizon;
  sim.Spawn(mix.Main());
  RunPhases(sim, log, tracer, sz.warmup, sz.horizon, round_start, &r);
  return r;
}

// hdfs-sharded: ShardedDfs with one shard per worker node, split-token on
// every worker, throttled and unthrottled clients writing 4 MiB blocks with
// 3x replication. An op is an acknowledged 1 MiB client chunk.
Round RunHdfs(const HdfsSize& sz, uint64_t seed, int threads,
              Tracer* tracer) {
  Round r;
  r.devices = sz.workers;
  const Counters round_start = counters();

  Phase build(tracer, "setup.stack_build", 0);
  ShardedDfs::Config config;
  config.workers = sz.workers;
  config.sched = SchedKind::kSplitToken;
  config.threads = threads;
  config.block_bytes = 4ULL << 20;
  config.network_chunk = kHdfsChunk;
  config.seed = seed;
  auto cluster = std::make_unique<ShardedDfs>(config);
  cluster->Start();
  cluster->SetAccountLimit(1, kHdfsCapBytes);
  // Folds the shards' construction counters into this thread, and brings
  // every stack's daemons to their first wait at simulated time 0.
  ShardRunStats start = cluster->Run(0);
  r.build_s = build.End(0);
  r.build_allocs = build.allocs();

  Phase warm(tracer, "setup.warmup", 0);
  const Nanos until = sz.warmup + sz.horizon;
  std::vector<WorkloadStats> stats(
      static_cast<size_t>(2 * sz.clients_per_group));
  for (int i = 0; i < sz.clients_per_group; ++i) {
    cluster->AddClient(i, 1, until, &stats[static_cast<size_t>(i)]);
    cluster->AddClient(100000 + i, -1, until,
                       &stats[static_cast<size_t>(sz.clients_per_group + i)]);
  }
  ShardRunStats warm_stats = cluster->Run(sz.warmup);
  r.warmup_s = warm.End(sz.warmup);

  auto acked_bytes = [&] {
    uint64_t b = 0;
    for (const WorkloadStats& s : stats) {
      b += s.bytes;
    }
    return b;
  };
  const uint64_t bytes0 = acked_bytes();
  const Counters c0 = counters();
  Phase timed(tracer, "timed", sz.warmup);
  r.shard = cluster->Run(until);
  r.timed_s = timed.End(until);
  r.timed = counters().Delta(c0);
  r.timed_ops = (acked_bytes() - bytes0) / kHdfsChunk;
  r.warmup = sz.warmup;
  r.horizon = sz.horizon;
  r.violations = start.causality_violations +
                 warm_stats.causality_violations +
                 r.shard.causality_violations;

  Digest d;
  for (const WorkloadStats& s : stats) {
    d.Add(s.bytes);
    d.Add(s.ops);
  }
  for (const ShardRunStats* s : {&start, &warm_stats, &r.shard}) {
    d.Add(s->epochs);
    d.Add(s->messages);
    d.Add(s->events);
    d.Add(s->causality_violations);
  }
  const Counters whole = counters().Delta(round_start);
  AddCounters(&d, whole);
  r.digest = d.value();
  // The client loop does not see RPC results, so its failures are the
  // counters' alone.
  r.ops = acked_bytes() / kHdfsChunk;
  r.failed = UnseenFailures(whole);
  return r;
}

enum class Workload { kRandRead, kFsyncMix, kHdfs };

struct Options {
  Workload workload = Workload::kRandRead;
  std::string workload_name;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  int rounds = 0;  // 0: repeat until --seconds of timed phases
  std::string spans_path;
};

Round RunRound(const Options& o, uint64_t seed, bool tiny, Tracer* tracer,
               int threads = 1) {
  switch (o.workload) {
    case Workload::kRandRead:
      return RunRandRead(tiny ? kRandReadTiny : kRandReadFull, seed, tracer);
    case Workload::kFsyncMix:
      return RunFsyncMix(tiny ? kFsyncMixTiny : kFsyncMixFull, seed, tracer);
    case Workload::kHdfs:
      return RunHdfs(tiny ? kHdfsTiny : kHdfsFull, seed, threads, tracer);
  }
  return Round();
}

std::string SizeLine(const Options& o) {
  char buf[256];
  switch (o.workload) {
    case Workload::kRandRead: {
      const RandReadSize& s = o.tiny ? kRandReadTiny : kRandReadFull;
      std::snprintf(buf, sizeof(buf), "file_mib=%llu readers=%d",
                    static_cast<unsigned long long>(s.file_bytes >> 20),
                    s.readers);
      break;
    }
    case Workload::kFsyncMix: {
      const FsyncMixSize& s = o.tiny ? kFsyncMixTiny : kFsyncMixFull;
      std::snprintf(
          buf, sizeof(buf),
          "readers=%d overwriters=%d loggers=%d checkpointers=1 hot_mib=%llu "
          "overwrite_mib=%llu checkpoint_mib=%llu",
          s.readers, s.overwriters, s.loggers,
          static_cast<unsigned long long>(s.hot_bytes >> 20),
          static_cast<unsigned long long>(s.overwrite_bytes >> 20),
          static_cast<unsigned long long>(s.checkpoint_bytes >> 20));
      break;
    }
    case Workload::kHdfs: {
      const HdfsSize& s = o.tiny ? kHdfsTiny : kHdfsFull;
      std::snprintf(buf, sizeof(buf), "workers=%d clients=%d+%d", s.workers,
                    s.clients_per_group, s.clients_per_group);
      break;
    }
  }
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename Fn>
double MedianOf(const std::vector<Round>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    v.push_back(fn(r));
  }
  return Median(std::move(v));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit);
    body_ += buf;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o->workload_name = v;
      if (v == "randread-ssd") {
        o->workload = Workload::kRandRead;
      } else if (v == "fsync-mix") {
        o->workload = Workload::kFsyncMix;
      } else if (v == "hdfs-sharded") {
        o->workload = Workload::kHdfs;
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o->trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") {
        std::fprintf(stderr, "--size must be full or tiny\n");
        return false;
      }
      o->tiny = v == "tiny";
    } else if (a == "--rounds") {
      o->rounds = std::atoi(v.c_str());
    } else if (a == "--spans") {
      o->spans_path = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  if (o->workload_name.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-optimized build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int pool = std::min(4, nproc);

  // Reference round: the tiny size at the default seed, whose digest run.py
  // compares with the pinned one whatever --seed is.
  const Round reference = RunRound(o, kDefaultSeed, /*tiny=*/true, nullptr);

  // Process warm-up round: the first full-size round pays for first-touch
  // page faults and allocator growth (its set-up runs up to 10x slower), so
  // its host figures are dropped; its digest still joins the check.
  const Round warm = RunRound(o, o.seed, o.tiny, nullptr);

  // Measured rounds, untraced, one host thread.
  std::vector<Round> rounds;
  double timed_total = 0;
  auto more = [&] {
    const int n = static_cast<int>(rounds.size());
    return o.rounds > 0 ? n < o.rounds
                        : n < kMinRounds || timed_total < o.seconds;
  };
  // Peak RSS is read after the first measured round: heap fragmentation
  // raises the peak a little with every further round, and the round count
  // depends on host speed.
  double peak_rss_mb = 0;
  while (more()) {
    rounds.push_back(RunRound(o, o.seed, o.tiny, nullptr));
    const Round& r = rounds.back();
    timed_total += r.timed_s;
    if (rounds.size() == 1) {
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    std::fprintf(stderr,
                 "round %zu: build_s=%.4f prealloc_s=%.4f warmup_s=%.4f "
                 "timed_s=%.4f timed_ops=%llu timed_events=%llu "
                 "timed_epochs=%llu digest=%s\n",
                 rounds.size(), r.build_s, r.prealloc_s, r.warmup_s,
                 r.timed_s, static_cast<unsigned long long>(r.timed_ops),
                 static_cast<unsigned long long>(r.timed.sim_events),
                 static_cast<unsigned long long>(r.shard.epochs),
                 Hex(r.digest).c_str());
  }
  bool consistent = warm.digest == rounds.front().digest;
  for (const Round& r : rounds) {
    consistent = consistent && r.digest == rounds.front().digest;
  }
  const Round& first = rounds.front();

  const double timed_s = MedianOf(rounds, [](const Round& r) {
    return r.timed_s;
  });
  // Ops and failures of the measured rounds, set-up and warm-up included.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Round& r : rounds) {
    attempted += r.ops;
    failed += r.failed;
  }

  MetricsJson m;
  m.Add("ops_per_s", MedianOf(rounds, [](const Round& r) {
          return Ratio(static_cast<double>(r.timed_ops), r.timed_s);
        }), "1/s");
  m.Add("setup_s", MedianOf(rounds, [](const Round& r) {
          return r.setup_s();
        }), "s");
  m.Add("allocs_per_op", MedianOf(rounds, [](const Round& r) {
          return Ratio(static_cast<double>(r.timed.allocs),
                       static_cast<double>(r.timed_ops));
        }), "allocs/op");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("op_ok_share",
        Ratio(static_cast<double>(attempted) - static_cast<double>(failed),
              static_cast<double>(attempted)),
        "ratio");

  std::string traced_digest;
  std::string pool_digest;
  uint64_t spans = 0;
  if (o.trace) {
    Tracer tracer;
    const Round t = RunRound(o, o.seed, o.tiny, &tracer);
    traced_digest = Hex(t.digest);
    consistent = consistent && t.digest == first.digest;
    spans = tracer.recorded();
    if (!o.spans_path.empty() && !tracer.Write(o.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   o.spans_path.c_str());
      return 1;
    }

    const Counters& c = t.timed;
    const double t_ops = static_cast<double>(t.timed_ops);
    const double host_ns = t.timed_s * 1e9;
    const double sched_share = Ratio(
        static_cast<double>(tracer.sched.host_ns), host_ns);
    const double block_share = Ratio(
        static_cast<double>(tracer.block.host_ns), host_ns);
    m.Add("fs.prealloc_s", MedianOf(rounds, [](const Round& r) {
            return r.prealloc_s;
          }), "s");
    m.Add("fs.prealloc_allocs", static_cast<double>(first.prealloc_allocs),
          "count");
    m.Add("cache.lookups_per_op", Ratio(c.cache_lookups, t_ops), "count/op");
    m.Add("cache.hit_ratio", Ratio(c.cache_hits, c.cache_lookups), "ratio");
    m.Add("block.requests_per_op", Ratio(c.block_submitted, t_ops),
          "count/op");
    m.Add("block.merge_ratio", Ratio(c.block_merged, c.block_submitted),
          "ratio");
    m.Add("block.elevator_calls_per_op",
          Ratio(static_cast<double>(tracer.block.calls), t_ops), "count/op");
    m.Add("block.elevator_ns_per_call",
          Ratio(static_cast<double>(tracer.block.host_ns),
                static_cast<double>(tracer.block.timed_calls)),
          "ns");
    m.Add("block.elevator_allocs_per_call",
          Ratio(static_cast<double>(tracer.block.allocs),
                static_cast<double>(tracer.block.timed_calls)),
          "allocs/call");
    m.Add("block.host_share", block_share, "ratio");
    m.Add("block.mq_kicks_per_op", Ratio(c.mq_kicks, t_ops), "count/op");
    m.Add("device.requests_per_op", Ratio(c.block_completed, t_ops),
          "count/op");
    m.Add("sim.events_per_op", Ratio(c.sim_events, t_ops), "count/op");
    m.Add("sim.immediate_share", Ratio(c.sim_immediate, c.sim_events),
          "ratio");
    m.Add("sim.host_ns_per_event", MedianOf(rounds, [](const Round& r) {
            return Ratio(r.timed_s * 1e9,
                         static_cast<double>(r.timed.sim_events));
          }), "ns");
    m.Add("sched.hook_calls_per_op",
          Ratio(static_cast<double>(tracer.sched.calls), t_ops), "count/op");
    m.Add("sched.hook_ns_per_call",
          Ratio(static_cast<double>(tracer.sched.host_ns),
                static_cast<double>(tracer.sched.timed_calls)),
          "ns");
    m.Add("sched.hook_allocs_per_call",
          Ratio(static_cast<double>(tracer.sched.allocs),
                static_cast<double>(tracer.sched.timed_calls)),
          "allocs/call");
    m.Add("sched.host_share", sched_share, "ratio");
    m.Add("cache.dirtied_per_op", Ratio(c.pages_dirtied, t_ops), "count/op");
    m.Add("fs.journal_commits", static_cast<double>(c.journal_commits),
          "count");
    m.Add("fs.wb_pages_per_commit",
          Ratio(c.wb_pages_flushed, c.journal_commits), "count");
    m.Add("device.flushes", static_cast<double>(c.device_flushes), "count");

    double pool_speedup = 0;
    if (o.workload == Workload::kHdfs) {
      const Round p = RunRound(o, o.seed, o.tiny, nullptr, pool);
      pool_digest = Hex(p.digest);
      consistent = consistent && p.digest == first.digest &&
                   p.violations == 0 && first.violations == 0;
      pool_speedup = Ratio(timed_s, p.timed_s);
    }
    const double epochs = static_cast<double>(first.shard.epochs);
    m.Add("shard.epochs", epochs, "count");
    m.Add("shard.events_per_epoch",
          Ratio(static_cast<double>(first.shard.events), epochs), "count");
    m.Add("shard.messages_per_epoch",
          Ratio(static_cast<double>(first.shard.messages), epochs), "count");
    m.Add("shard.host_us_per_epoch", Ratio(timed_s * 1e6, epochs), "us");
    m.Add("shard.allocs_per_epoch",
          Ratio(static_cast<double>(first.timed.allocs), epochs), "count");
    m.Add("shard.violations", static_cast<double>(first.violations), "count");
    m.Add("shard.pool_speedup", pool_speedup, "x");
    m.Add("core.stack_build_s", MedianOf(rounds, [](const Round& r) {
            return r.build_s;
          }), "s");
    m.Add("core.stack_build_allocs", static_cast<double>(first.build_allocs),
          "count");
    m.Add("core.warmup_s", MedianOf(rounds, [](const Round& r) {
            return r.warmup_s;
          }), "s");
    m.Add("stack.other_host_share",
          o.workload == Workload::kHdfs ? 0 : 1 - sched_share - block_share,
          "ratio");
    m.Add("trace.overhead_share", Ratio(t.timed_s - timed_s, t.timed_s),
          "ratio");
    for (int k : {kRead, kWrite, kFsync, kCreat}) {
      m.Add(std::string("syscall.") + kKindName[k] + ".count",
            static_cast<double>(t.kind_count[k]), "count");
    }
    m.Add("syscall.errors", static_cast<double>(t.failed), "count");
    for (int k : {kRead, kWrite, kFsync}) {
      m.Add(std::string("syscall.") + kKindName[k] + ".sim_p99_ms",
            t.p99_ms[k], "ms");
    }
    m.Add("sched.entry_wait_sim_ms",
          Ratio(ToMillis(tracer.entry_wait),
                static_cast<double>(tracer.entry_calls)),
          "ms");
    m.Add("device.busy_share",
          Ratio(static_cast<double>(c.device_busy_ns),
                static_cast<double>(t.horizon) * t.devices),
          "ratio");
  }

  std::printf(
      "provenance: workload=%s seed=%llu size=%s %s warmup_ms=%.0f "
      "horizon_ms=%.0f rounds=%zu nproc=%d build=%s optimized=1 "
      "pool_threads=%d digest=%s reference_digest=%s traced_digest=%s "
      "pool_digest=%s spans=%llu\n",
      o.workload_name.c_str(), static_cast<unsigned long long>(o.seed),
      o.tiny ? "tiny" : "full", SizeLine(o).c_str(), ToMillis(first.warmup),
      ToMillis(first.horizon), rounds.size(), nproc, PERFBENCH_BUILD_TYPE,
      o.trace && o.workload == Workload::kHdfs ? pool : 1,
      Hex(first.digest).c_str(), Hex(reference.digest).c_str(),
      traced_digest.empty() ? "-" : traced_digest.c_str(),
      pool_digest.empty() ? "-" : pool_digest.c_str(),
      static_cast<unsigned long long>(spans));
  std::printf(
      "{\"workload\": \"%s\", \"digest\": \"%s\", \"reference_digest\": "
      "\"%s\", \"consistent\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      o.workload_name.c_str(), Hex(first.digest).c_str(),
      Hex(reference.digest).c_str(), consistent ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.str().c_str());
  return 0;
}

}  // namespace
}  // namespace splitio::perfbench

int main(int argc, char** argv) {
  return splitio::perfbench::Main(argc, argv);
}
