// Figure 11 — AFQ priority respect across four workloads.
//
// (a) 8 sequential readers, prio 0..7   — both CFQ and AFQ respect priority.
// (b) 8 async sequential writers        — CFQ collapses (writeback proxy);
//                                         AFQ respects priority via tags.
// (c) 40 threads (5 per prio) doing 4KB random write + fsync — journaling
//     blinds CFQ; AFQ schedules fsyncs at the syscall level.
// (d) 8 threads overwriting a 4 MB cached region — no disk contention; both
//     should deliver full memory speed (AFQ slightly slower: bookkeeping).
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

constexpr Nanos kRunTime = Sec(20);

struct Shares {
  std::vector<double> share;  // per priority, percent
  double total_mbps = 0;
  double mean_deviation = 0;  // |share-goal|/goal averaged
};

Shares ComputeShares(const std::vector<WorkloadStats>& stats, Nanos dur,
                     int per_prio) {
  Shares out;
  double total = 0;
  for (const auto& s : stats) {
    total += static_cast<double>(s.bytes);
  }
  out.total_mbps = total / (1024.0 * 1024.0) / ToSeconds(dur);
  double dev = 0;
  for (int prio = 0; prio < 8; ++prio) {
    double got = 0;
    for (int i = 0; i < per_prio; ++i) {
      got += static_cast<double>(
          stats[static_cast<size_t>(prio * per_prio + i)].bytes);
    }
    double share = total > 0 ? 100.0 * got / total : 0;
    out.share.push_back(share);
    double goal = 100.0 * (8 - prio) / 36.0;
    dev += std::abs(share - goal) / goal;
  }
  out.mean_deviation = dev / 8;
  return out;
}

enum class Mode { kSeqRead, kAsyncWrite, kSyncRandWrite, kMemory };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSeqRead: return "seq-read";
    case Mode::kAsyncWrite: return "async-write";
    case Mode::kSyncRandWrite: return "sync-rand-write";
    case Mode::kMemory: return "memory";
  }
  return "?";
}

Shares Run(SchedKind kind, Mode mode) {
  StackCounterScope scope(std::string(SchedName(kind)) + "/" +
                          ModeName(mode));
  Simulator sim;
  BundleOptions opt;
  opt.stack.cache.total_ram = 2ULL << 30;
  Bundle b = MakeBundle(SpecForKind(kind), std::move(opt));
  int per_prio = mode == Mode::kSyncRandWrite ? 5 : 1;
  int n = 8 * per_prio;
  std::vector<WorkloadStats> stats(static_cast<size_t>(n));
  std::vector<Process*> procs;
  std::vector<int64_t> inos(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    Process* p = b.stack->NewProcess("t" + std::to_string(i));
    p->set_priority(i / per_prio);
    procs.push_back(p);
    if (mode == Mode::kSeqRead) {
      inos[static_cast<size_t>(i)] = b.stack->fs().CreatePreallocated(
          "/r" + std::to_string(i), 4ULL << 30);
    }
  }
  auto thread_body = [&](int i) -> Task<void> {
    Process* p = procs[static_cast<size_t>(i)];
    WorkloadStats* s = &stats[static_cast<size_t>(i)];
    OsKernel& kernel = b.stack->kernel();
    switch (mode) {
      case Mode::kSeqRead:
        co_await SequentialReader(kernel, *p, inos[static_cast<size_t>(i)],
                                  4ULL << 30, 256 * 1024, kRunTime, s);
        break;
      case Mode::kAsyncWrite: {
        int64_t ino = co_await kernel.Creat(*p, "/w" + std::to_string(i));
        co_await SequentialWriter(kernel, *p, ino, 256 * 1024, kRunTime, s);
        break;
      }
      case Mode::kSyncRandWrite: {
        int64_t ino = co_await kernel.Creat(*p, "/s" + std::to_string(i));
        WorkloadStats dummy;
        co_await BigWriteFsyncLoop(kernel, *p, ino, 64 << 20, 4096, 4096, 0,
                                   static_cast<uint64_t>(i) + 1, kRunTime, s);
        (void)dummy;
        break;
      }
      case Mode::kMemory: {
        int64_t ino = co_await kernel.Creat(*p, "/m" + std::to_string(i));
        co_await MemWriter(kernel, *p, ino, 4 << 20, 256 * 1024, kRunTime, s);
        break;
      }
    }
  };
  for (int i = 0; i < n; ++i) {
    sim.Spawn(thread_body(i));
  }
  sim.Run(kRunTime);
  return ComputeShares(stats, kRunTime, per_prio);
}

void PrintComparison(const char* title, Mode mode, bool fairness_goal) {
  std::printf("\n-- %s --\n", title);
  Shares cfq = Run(SchedKind::kCfq, mode);
  Shares afq = Run(SchedKind::kAfq, mode);
  std::printf("%5s %10s %10s %10s\n", "prio", "goal(%)", "CFQ(%)", "AFQ(%)");
  for (int prio = 0; prio < 8; ++prio) {
    std::printf("%5d %10.1f %10.1f %10.1f\n", prio, 100.0 * (8 - prio) / 36.0,
                cfq.share[static_cast<size_t>(prio)],
                afq.share[static_cast<size_t>(prio)]);
  }
  std::printf("totals: CFQ %.1f MB/s, AFQ %.1f MB/s\n", cfq.total_mbps,
              afq.total_mbps);
  if (fairness_goal) {
    std::printf("mean deviation from goal: CFQ %.0f%%, AFQ %.0f%%\n",
                100 * cfq.mean_deviation, 100 * afq.mean_deviation);
  } else {
    std::printf("(no fairness goal: no disk contention)\n");
  }
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 11: AFQ vs CFQ priorities");
  PrintComparison("(a) sequential read, 8 threads", Mode::kSeqRead, true);
  PrintComparison("(b) async sequential write, 8 threads", Mode::kAsyncWrite,
                  true);
  PrintComparison("(c) sync random write + fsync, 40 threads",
                  Mode::kSyncRandWrite, true);
  PrintComparison("(d) cached 4MB overwrite, 8 threads", Mode::kMemory,
                  false);
  return 0;
}
