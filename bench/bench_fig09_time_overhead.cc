// Figure 9 — Time overhead of the split framework.
//
// No-op schedulers in the block framework and the split framework run
// N threads of synchronous 4 KB random I/O against the SSD model. The
// split framework's tagging and hook dispatch should cost nothing
// measurable in simulated throughput; the bench also reports real
// (wall-clock) microseconds per simulated event as a sanity check.
#include <chrono>

#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Row {
  double sim_mbps;
  double wall_us_per_event;
};

Row Run(SchedKind kind, int threads) {
  StackCounterScope counter_scope(std::string(SchedName(kind)) + "/t" +
                                  std::to_string(threads));
  auto wall_start = std::chrono::steady_clock::now();
  Simulator sim;
  BundleOptions opt;
  opt.stack.device = StackConfig::DeviceKind::kSsd;
  Bundle b = MakeBundle(SpecForKind(kind), std::move(opt));
  constexpr Nanos kEnd = Sec(10);
  std::vector<WorkloadStats> stats(static_cast<size_t>(threads));
  int64_t ino = b.stack->fs().CreatePreallocated("/data", 8ULL << 30);
  auto worker = [&](int tid) -> Task<void> {
    Process* p = b.stack->NewProcess("t" + std::to_string(tid));
    co_await RandomReader(b.stack->kernel(), *p, ino, 8ULL << 30, 4096,
                          static_cast<uint64_t>(tid) + 1, kEnd,
                          &stats[static_cast<size_t>(tid)]);
  };
  for (int t = 0; t < threads; ++t) {
    sim.Spawn(worker(t));
  }
  sim.Run(kEnd);
  uint64_t bytes = 0;
  for (const auto& s : stats) {
    bytes += s.bytes;
  }
  auto wall_end = std::chrono::steady_clock::now();
  double wall_us = std::chrono::duration<double, std::micro>(wall_end -
                                                             wall_start)
                       .count();
  Row row;
  row.sim_mbps = static_cast<double>(bytes) / (1024.0 * 1024.0) /
                 ToSeconds(kEnd);
  row.wall_us_per_event =
      wall_us / static_cast<double>(sim.events_processed());
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 9: framework time overhead (no-op schedulers, SSD, "
             "4KB sync random reads)");
  std::printf("%8s %18s %18s %12s\n", "threads", "block-noop(MB/s)",
              "split-noop(MB/s)", "overhead");
  for (int threads : {1, 2, 5, 10, 20, 50, 100}) {
    Row blocknoop = Run(SchedKind::kNoop, threads);
    Row splitnoop = Run(SchedKind::kSplitNoop, threads);
    double overhead =
        100.0 * (1.0 - splitnoop.sim_mbps / blocknoop.sim_mbps);
    std::printf("%8d %18.1f %18.1f %11.2f%%\n", threads, blocknoop.sim_mbps,
                splitnoop.sim_mbps, overhead);
    if (threads == 100) {
      ReportMetric("overhead_pct_100_threads", overhead);
      ReportMetric("wall_us_per_event_split_100",
                   splitnoop.wall_us_per_event);
    }
  }
  std::printf("\n(Paper: no noticeable overhead up to 100 threads.)\n");
  return 0;
}
