// Figure 3 — CFQ Throughput for asynchronous writers.
//
// Eight threads with ionice priorities 0 (highest) .. 7 (lowest) each write
// sequentially to their own file. Left: per-priority share of throughput vs
// the weighted-fair goal. Right: the fraction of block-level requests CFQ
// *believes* each priority submitted — everything arrives via the
// priority-4 writeback proxy, which is why CFQ cannot be fair.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

constexpr Nanos kRunTime = Sec(30);

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 3: CFQ vs. buffered-write priorities (8 async writers)");

  StackCounterScope scope(SchedName(SchedKind::kCfq));
  Simulator sim;
  BundleOptions opt;
  opt.stack.cache.total_ram = 2ULL << 30;
  Bundle b = MakeBundle(CfqSpec(), std::move(opt));

  std::vector<Process*> procs;
  std::vector<WorkloadStats> stats(8);
  for (int prio = 0; prio < 8; ++prio) {
    Process* p = b.stack->NewProcess("writer");
    p->set_priority(prio);
    procs.push_back(p);
  }
  auto writer = [&](int prio) -> Task<void> {
    Process* p = procs[static_cast<size_t>(prio)];
    int64_t ino =
        co_await b.stack->kernel().Creat(*p, "/w" + std::to_string(prio));
    co_await SequentialWriter(b.stack->kernel(), *p, ino, 256 * 1024,
                              kRunTime, &stats[static_cast<size_t>(prio)]);
  };
  for (int prio = 0; prio < 8; ++prio) {
    sim.Spawn(writer(prio));
  }
  sim.Run(kRunTime);

  double total = 0;
  for (const auto& s : stats) {
    total += static_cast<double>(s.bytes);
  }
  uint64_t total_reqs = 0;
  for (int p = 0; p < 8; ++p) {
    total_reqs += b.stack->block().submitted_by_priority(p);
  }

  std::printf("%5s %12s %12s %22s\n", "prio", "share(%)", "goal(%)",
              "reqs-seen-by-CFQ(%)");
  for (int prio = 0; prio < 8; ++prio) {
    double share =
        100.0 * static_cast<double>(stats[static_cast<size_t>(prio)].bytes) /
        total;
    double goal = 100.0 * static_cast<double>(8 - prio) / 36.0;
    double seen = total_reqs == 0
                      ? 0
                      : 100.0 *
                            static_cast<double>(
                                b.stack->block().submitted_by_priority(prio)) /
                            static_cast<double>(total_reqs);
    std::printf("%5d %12.1f %12.1f %22.1f\n", prio, share, goal, seen);
  }
  std::printf("\nTotal write throughput: %.1f MB/s "
              "(all requests appear to come from priority 4 = writeback)\n",
              total / (1024.0 * 1024.0) / ToSeconds(kRunTime));
  return 0;
}
