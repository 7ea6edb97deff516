// Figure 10 — Space overhead of cause-set tagging.
//
// A write-heavy workload (several writers streaming into their own files,
// as on an HDFS worker with 8 GB of RAM) runs under Split-Token while the
// tag-memory accountant samples the bytes held by CauseSet tags. Overhead
// tracks the number of dirty buffers, so it grows with the dirty ratio.
#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/core/causes.h"

namespace splitio {
namespace {

struct Row {
  double avg_mb;
  double max_mb;
};

Row Run(double dirty_ratio) {
  StackCounterScope scope(
      std::string(SchedName(SchedKind::kSplitToken)) + "/dirty" +
      std::to_string(static_cast<int>(dirty_ratio * 100)));
  TagMemoryAccountant::Instance().Reset();
  Simulator sim;
  BundleOptions opt;
  opt.stack.cache.total_ram = 8ULL << 30;
  opt.stack.cache.dirty_ratio = dirty_ratio;
  opt.stack.cache.dirty_background_ratio = dirty_ratio / 2;
  Bundle b = MakeBundle(SplitTokenSpec(), std::move(opt));
  constexpr Nanos kEnd = Sec(60);
  constexpr int kWriters = 4;
  std::vector<WorkloadStats> stats(kWriters);
  auto writer = [&](int tid) -> Task<void> {
    Process* p = b.stack->NewProcess("w" + std::to_string(tid));
    int64_t ino =
        co_await b.stack->kernel().Creat(*p, "/f" + std::to_string(tid));
    co_await SequentialWriter(b.stack->kernel(), *p, ino, 1 << 20, kEnd,
                              &stats[static_cast<size_t>(tid)]);
  };
  double sum_mb = 0;
  double max_mb = 0;
  int samples = 0;
  auto sampler = [&]() -> Task<void> {
    for (;;) {
      co_await Delay(Msec(100));
      double mb = static_cast<double>(
                      TagMemoryAccountant::Instance().current_bytes()) /
                  (1024.0 * 1024.0);
      sum_mb += mb;
      max_mb = std::max(max_mb, mb);
      ++samples;
    }
  };
  for (int t = 0; t < kWriters; ++t) {
    sim.Spawn(writer(t));
  }
  sim.Spawn(sampler());
  sim.Run(kEnd);
  Row row;
  row.avg_mb = samples > 0 ? sum_mb / samples : 0;
  row.max_mb = max_mb;
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 10: tag memory overhead vs dirty ratio (8 GB RAM, "
             "write-heavy)");
  std::printf("%12s %12s %12s %14s\n", "dirty-ratio", "avg(MB)", "max(MB)",
              "max(%of-RAM)");
  for (double ratio : {0.05, 0.10, 0.20, 0.30, 0.40, 0.50}) {
    Row row = Run(ratio);
    std::printf("%11.0f%% %12.2f %12.2f %13.3f%%\n", ratio * 100, row.avg_mb,
                row.max_mb, 100.0 * row.max_mb / (8.0 * 1024.0));
  }
  std::printf("\n(Paper: avg 14.5 MB / max 23.3 MB at default ratios; "
              "52.2 MB max at 50%% — always a small fraction of RAM. Note "
              "that our tags are per 4 KB page while the tag *granularity* "
              "differs from the kernel's, so compare trends, not absolute "
              "MB.)\n");
  return 0;
}
