// Ablation — Split-Token with vs without block-level estimate revision
// (§3.2 / §5.3).
//
// The preliminary memory-level model guesses cost from offset randomness
// within the file. Without the block-level revision pass, the scheduler
// never learns about journal amplification, fragmentation, or the true
// seek pattern after allocation. The metadata workload of Figure 17 makes
// the gap obvious: creates + fsyncs incur almost all of their cost as
// journal writes, which carry no preliminary charge at all.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Outcome {
  double a_mbps;
  double b_creates_per_sec;
};

Outcome Run(bool revise) {
  Simulator sim;
  SplitTokenConfig token;
  token.revise_at_block_level = revise;
  Bundle b = MakeBundle(SplitTokenSpec(token));
  b.composed->SetAccountLimit(1, 512.0 * 1024);
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
    co_await CreateFsyncLoop(b.stack->kernel(), *bp, "/meta", 0, kEnd,
                             &b_stats);
  };
  sim.Spawn(reader());
  sim.Spawn(creator());
  sim.Run(kEnd);
  Outcome out;
  out.a_mbps = a_stats.MBps(0, kEnd);
  out.b_creates_per_sec = static_cast<double>(b_stats.ops) / ToSeconds(kEnd);
  return out;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Ablation: Split-Token block-level estimate revision "
             "(metadata-heavy B, ext4)");
  Outcome with_revision = Run(true);
  Outcome without = Run(false);
  std::printf("%16s %12s %16s\n", "revision", "A(MB/s)", "B(creates/s)");
  std::printf("%16s %12.1f %16.1f\n", "on", with_revision.a_mbps,
              with_revision.b_creates_per_sec);
  std::printf("%16s %12.1f %16.1f\n", "off", without.a_mbps,
              without.b_creates_per_sec);
  std::printf("\n(Without revision the journal amplification is never "
              "charged: B's creates run unthrottled and A loses "
              "throughput.)\n");
  return 0;
}
