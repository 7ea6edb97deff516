// Figure 1 — Write Burst.
//
// Process A reads a large file sequentially. Process B, in the ionice IDLE
// class, issues a one-second burst of random buffered writes. Under CFQ the
// burst pollutes the write buffer and the (priority-4) writeback thread
// then competes with A for minutes — the idle class is powerless against
// buffered writes. Under Split-Token, B is throttled the moment it dirties
// buffers, and A recovers almost immediately.
//
// Output: time series of A's read throughput (MB/s per second of simulated
// time) for both schedulers.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Result {
  std::vector<double> mbps;  // per second
};

Result Run(SchedKind kind) {
  StackCounterScope scope(SchedName(kind));
  Simulator sim;
  BundleOptions opt;
  opt.stack.cache.total_ram = 4ULL << 30;
  Bundle b = MakeBundle(SpecForKind(kind), std::move(opt));
  if (b.composed != nullptr && b.composed->has_token_budget()) {
    b.composed->SetAccountLimit(1, 1.0 * 1024 * 1024);
  }
  Process* a = b.stack->NewProcess("A");
  Process* bp = b.stack->NewProcess("B");
  bp->set_io_class(IoClass::kIdle);
  bp->set_account(1);

  int64_t big = b.stack->fs().CreatePreallocated("/big", 8ULL << 30);
  int64_t target = -1;

  Result result;
  WorkloadStats a_stats;
  constexpr Nanos kEnd = Sec(120);

  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(b.stack->kernel(), *a, big, 8ULL << 30,
                              256 * 1024, kEnd, &a_stats);
  };
  auto burster = [&]() -> Task<void> {
    target = co_await b.stack->kernel().Creat(*bp, "/burst");
    co_await Delay(Sec(10));
    // One-second burst of random 4 KB writes over a 2 GB region; buffered
    // writes are fast, so the burst dirties a lot of scattered data.
    WorkloadStats b_stats;
    co_await RandomWriter(b.stack->kernel(), *bp, target, 2ULL << 30, 4096,
                          99, Simulator::current().Now() + Sec(1), &b_stats);
  };
  auto sampler = [&]() -> Task<void> {
    uint64_t last_bytes = 0;
    for (int s = 0; s < 120; ++s) {
      co_await Delay(Sec(1));
      result.mbps.push_back(
          static_cast<double>(a_stats.bytes - last_bytes) / (1024.0 * 1024.0));
      last_bytes = a_stats.bytes;
    }
  };
  sim.Spawn(reader());
  sim.Spawn(burster());
  sim.Spawn(sampler());
  sim.Run(kEnd);
  return result;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 1: one-second idle-priority write burst vs. sequential reader");
  Result cfq = Run(SchedKind::kCfq);
  Result split = Run(SchedKind::kSplitToken);
  std::printf("%6s %14s %18s\n", "sec", "CFQ(MB/s)", "Split-Token(MB/s)");
  for (size_t s = 0; s < cfq.mbps.size(); ++s) {
    std::printf("%6zu %14.1f %18.1f\n", s + 1, cfq.mbps[s],
                s < split.mbps.size() ? split.mbps[s] : 0.0);
  }
  // Summary: recovery time after the burst at t=10.
  auto recovery = [](const Result& r) {
    double base = r.mbps.empty() ? 0 : r.mbps[5];
    for (size_t s = 11; s < r.mbps.size(); ++s) {
      if (r.mbps[s] > 0.8 * base) {
        return static_cast<int>(s) - 10;
      }
    }
    return -1;
  };
  int cfq_recovery = recovery(cfq);
  int split_recovery = recovery(split);
  std::printf("\nRecovery to 80%% of baseline after burst: CFQ=%ds, "
              "Split-Token=%ds (-1 = never within 110s)\n",
              cfq_recovery, split_recovery);
  ReportMetric("recovery_cfq_s", cfq_recovery);
  ReportMetric("recovery_split_token_s", split_recovery);
  return 0;
}
