// Figure 17 — Metadata workloads: full (ext4) vs partial (XFS) integration.
//
// A reads sequentially (unthrottled). B repeatedly creates an empty file
// and fsyncs it, sleeping between creates (x-axis); B is throttled. With
// ext4's full integration the journal commits carry B in their cause sets,
// so Split-Token charges and throttles B's creates and A stays fast. With
// XFS's partial integration the log writes are attributed to the XFS log
// task: B escapes the throttle and A pays.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Row {
  double a_mbps;
  double b_creates_per_sec;
};

Row Run(StackConfig::FsKind fs, Nanos sleep) {
  StackCounterScope scope(
      std::string(SchedName(SchedKind::kSplitToken)) +
      (fs == StackConfig::FsKind::kXfs ? "/xfs" : "/ext4") + "/sleep" +
      std::to_string(static_cast<long long>(ToMillis(sleep))) + "ms");
  Simulator sim;
  BundleOptions opt;
  opt.stack.fs = fs;
  Bundle b = MakeBundle(SplitTokenSpec(), std::move(opt));
  b.composed->SetAccountLimit(1, 512.0 * 1024);  // tight metadata budget
  Process* a = b.stack->NewProcess("A");
  Process* bp = b.stack->NewProcess("B");
  bp->set_account(1);
  int64_t a_ino = b.stack->fs().CreatePreallocated("/a", 8ULL << 30);
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  constexpr Nanos kEnd = Sec(20);
  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(b.stack->kernel(), *a, a_ino, 8ULL << 30,
                              256 * 1024, kEnd, &a_stats);
  };
  auto creator = [&]() -> Task<void> {
    co_await CreateFsyncLoop(b.stack->kernel(), *bp, "/meta", sleep, kEnd,
                             &b_stats);
  };
  sim.Spawn(reader());
  sim.Spawn(creator());
  sim.Run(kEnd);
  Row row;
  row.a_mbps = a_stats.MBps(0, kEnd);
  row.b_creates_per_sec = static_cast<double>(b_stats.ops) / ToSeconds(kEnd);
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 17: metadata-heavy B (create+fsync) under Split-Token");
  std::printf("%11s | %12s %14s | %12s %14s\n", "B-sleep(ms)", "A-ext4(MB/s)",
              "B-ext4(cr/s)", "A-xfs(MB/s)", "B-xfs(cr/s)");
  for (Nanos sleep : {Msec(0), Msec(1), Msec(2), Msec(5), Msec(10), Msec(20),
                      Msec(50), Msec(100)}) {
    Row ext4 = Run(StackConfig::FsKind::kExt4, sleep);
    Row xfs = Run(StackConfig::FsKind::kXfs, sleep);
    std::printf("%11.0f | %12.1f %14.1f | %12.1f %14.1f\n", ToMillis(sleep),
                ext4.a_mbps, ext4.b_creates_per_sec, xfs.a_mbps,
                xfs.b_creates_per_sec);
  }
  std::printf("\n(Paper: ext4 throttles B's creates regardless of sleep; XFS "
              "leaves B unthrottled so B's sleep dictates A's fate.)\n");
  return 0;
}
