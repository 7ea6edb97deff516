// Figure 5 — I/O Latency Dependencies under Block-Deadline.
//
// Thread A appends one 4 KB block and fsyncs, in a loop. Thread B writes N
// bytes randomly and then fsyncs. Both get 20 ms block-request deadlines.
// Because A's fsync depends on the journal commit, which batches B's
// metadata and therefore B's ordered data, A's latency tracks B's flush
// size — block-level deadlines cannot help.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Row {
  uint64_t n;
  double avg_ms;
  double p99_ms;
};

Row RunOne(uint64_t n_bytes) {
  StackCounterScope scope(std::string(SchedName(SchedKind::kBlockDeadline)) +
                          "/" + HumanBytes(n_bytes));
  Simulator sim;
  BlockDeadlineConfig deadline;
  deadline.read_expiry = Msec(20);
  deadline.write_expiry = Msec(20);
  Bundle b = MakeBundle(BlockDeadlineSpec(deadline));
  Process* a = b.stack->NewProcess("A");
  Process* bp = b.stack->NewProcess("B");
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  constexpr Nanos kEnd = Sec(30);
  auto small = [&]() -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*a, "/a");
    co_await AppendFsyncLoop(b.stack->kernel(), *a, ino, 4096, kEnd,
                             &a_stats);
  };
  auto big = [&](uint64_t nbytes) -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*bp, "/b");
    co_await b.stack->kernel().Write(*bp, ino, 0, 64 << 20);
    co_await b.stack->kernel().Fsync(*bp, ino);
    co_await BigWriteFsyncLoop(b.stack->kernel(), *bp, ino, 64 << 20, nbytes,
                               4096, Msec(50), 7, kEnd, &b_stats);
  };
  sim.Spawn(small());
  sim.Spawn(big(n_bytes));
  sim.Run(kEnd);
  Row row;
  row.n = n_bytes;
  row.avg_ms = a_stats.latency.MeanMillis();
  row.p99_ms = ToMillis(a_stats.latency.Percentile(99));
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle(
      "Figure 5: A's 4KB fsync latency vs. B's flush size (Block-Deadline, "
      "20ms deadlines)");
  std::printf("%10s %16s %16s\n", "B-size", "A-avg-fsync(ms)",
              "A-p99-fsync(ms)");
  for (uint64_t n = 16ULL << 10; n <= (4ULL << 20); n *= 4) {
    Row row = RunOne(n);
    std::printf("%10s %16.1f %16.1f\n", HumanBytes(row.n).c_str(), row.avg_ms,
                row.p99_ms);
  }
  return 0;
}
