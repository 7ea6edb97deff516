// Shared machinery for the token-bucket isolation experiments
// (Figures 6, 13, 14, 16): an unthrottled sequential reader A plus a
// throttled process B running various patterns.
#ifndef BENCH_COMMON_ISOLATION_H_
#define BENCH_COMMON_ISOLATION_H_

#include "bench/common/harness.h"

namespace splitio {

struct IsolationResult {
  double a_mbps = 0;
  double b_mbps = 0;
};

enum class BWorkload {
  kReadMem,
  kReadSeq,
  kReadRand,
  kWriteMem,
  kWriteSeq,
  kWriteRand,
  kRunSizeRead,   // Fig 6/13 pattern with run_bytes
  kRunSizeWrite,
  kNone,
};

inline const char* BWorkloadName(BWorkload w) {
  switch (w) {
    case BWorkload::kReadMem: return "read-mem";
    case BWorkload::kReadSeq: return "read-seq";
    case BWorkload::kReadRand: return "read-rand";
    case BWorkload::kWriteMem: return "write-mem";
    case BWorkload::kWriteSeq: return "write-seq";
    case BWorkload::kWriteRand: return "write-rand";
    case BWorkload::kRunSizeRead: return "run-read";
    case BWorkload::kRunSizeWrite: return "run-write";
    case BWorkload::kNone: return "none";
  }
  return "?";
}

struct IsolationParams {
  SchedKind sched = SchedKind::kSplitToken;
  StackConfig::FsKind fs = StackConfig::FsKind::kExt4;
  double b_rate = 10.0 * 1024 * 1024;  // normalized bytes/sec
  BWorkload b_workload = BWorkload::kNone;
  uint64_t run_bytes = 64 * 1024;  // for kRunSize*
  Nanos duration = Sec(30);
  int b_threads = 1;
};

// Runs A (unthrottled sequential reader over a 8 GB file) against B.
inline IsolationResult RunIsolation(const IsolationParams& params) {
  // One per_stack entry (and trace label) per configuration run: scheduler,
  // B's workload, and — for the run-size sweeps, which revisit the same
  // workload at many sizes — the run size.
  std::string scope_label =
      std::string(SchedName(params.sched)) + "/" +
      BWorkloadName(params.b_workload);
  if (params.b_workload == BWorkload::kRunSizeRead ||
      params.b_workload == BWorkload::kRunSizeWrite) {
    scope_label += "/" + HumanBytes(params.run_bytes);
  }
  StackCounterScope scope(scope_label);
  Simulator sim;
  BundleOptions opt;
  opt.stack.fs = params.fs;
  Bundle b = MakeBundle(SpecForKind(params.sched), std::move(opt));
  if (b.composed != nullptr && b.composed->has_token_budget()) {
    b.composed->SetAccountLimit(1, params.b_rate);
  }

  Process* a = b.stack->NewProcess("A");
  int64_t a_ino = b.stack->fs().CreatePreallocated("/a", 8ULL << 30);
  WorkloadStats a_stats;
  WorkloadStats b_stats;

  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(b.stack->kernel(), *a, a_ino, 8ULL << 30,
                              256 * 1024, params.duration, &a_stats);
  };
  sim.Spawn(reader());

  int64_t b_read_ino = -1;
  if (params.b_workload == BWorkload::kReadSeq ||
      params.b_workload == BWorkload::kReadRand ||
      params.b_workload == BWorkload::kReadMem ||
      params.b_workload == BWorkload::kRunSizeRead) {
    b_read_ino = b.stack->fs().CreatePreallocated("/bsrc", 10ULL << 30);
  }

  auto b_thread = [&](int tid) -> Task<void> {
    Process* bp = b.stack->NewProcess("B" + std::to_string(tid));
    bp->set_account(1);
    OsKernel& kernel = b.stack->kernel();
    switch (params.b_workload) {
      case BWorkload::kReadMem: {
        // Pre-warm: the region is already cached (a long-lived working
        // set); only the steady-state rereads are measured.
        int64_t ino = b.stack->fs().CreatePreallocated(
            "/bm" + std::to_string(tid), 64 << 20);
        for (uint64_t idx = 0; idx < (64ULL << 20) / kPageSize; ++idx) {
          b.stack->cache().InsertClean(ino, idx);
        }
        co_await MemReader(kernel, *bp, ino, 64 << 20, 1 << 20,
                           params.duration, &b_stats);
        break;
      }
      case BWorkload::kReadSeq:
        co_await SequentialReader(kernel, *bp, b_read_ino, 10ULL << 30,
                                  256 * 1024, params.duration, &b_stats);
        break;
      case BWorkload::kReadRand:
        co_await RandomReader(kernel, *bp, b_read_ino, 10ULL << 30, 4096,
                              100 + static_cast<uint64_t>(tid),
                              params.duration, &b_stats);
        break;
      case BWorkload::kWriteMem: {
        // Small region: after the (charged) first pass, the steady state is
        // overwrites of buffered data — free under split, taxed under SCS.
        int64_t ino = co_await kernel.Creat(
            *bp, "/bw" + std::to_string(tid));
        co_await MemWriter(kernel, *bp, ino, 8 << 20, 1 << 20,
                           params.duration, &b_stats);
        break;
      }
      case BWorkload::kWriteSeq: {
        int64_t ino = co_await kernel.Creat(
            *bp, "/bw" + std::to_string(tid));
        co_await SequentialWriter(kernel, *bp, ino, 256 * 1024,
                                  params.duration, &b_stats);
        break;
      }
      case BWorkload::kWriteRand: {
        int64_t ino = co_await kernel.Creat(
            *bp, "/bw" + std::to_string(tid));
        co_await RandomWriter(kernel, *bp, ino, 2ULL << 30, 4096,
                              200 + static_cast<uint64_t>(tid),
                              params.duration, &b_stats);
        break;
      }
      case BWorkload::kRunSizeRead:
        co_await RunSizeWorkload(kernel, *bp, b_read_ino, 10ULL << 30,
                                 params.run_bytes, /*writes=*/false,
                                 300 + static_cast<uint64_t>(tid),
                                 params.duration, &b_stats);
        break;
      case BWorkload::kRunSizeWrite: {
        int64_t ino = co_await kernel.Creat(
            *bp, "/bw" + std::to_string(tid));
        // Pre-size the region so run-sized writes overwrite real space.
        co_await RunSizeWorkload(kernel, *bp, ino, 2ULL << 30,
                                 params.run_bytes, /*writes=*/true,
                                 300 + static_cast<uint64_t>(tid),
                                 params.duration, &b_stats);
        break;
      }
      case BWorkload::kNone:
        break;
    }
  };
  for (int t = 0; t < params.b_threads; ++t) {
    sim.Spawn(b_thread(t));
  }
  sim.Run(params.duration);

  IsolationResult result;
  result.a_mbps = a_stats.MBps(0, params.duration);
  result.b_mbps = b_stats.MBps(0, params.duration);
  return result;
}

}  // namespace splitio

#endif  // BENCH_COMMON_ISOLATION_H_
