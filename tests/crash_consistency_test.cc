// Crash-consistency sweep: every scheduler (split and block-level) on ext4
// and XFS must preserve the ordered-mode invariants at randomized and
// adversarial crash points — and the checker must catch injected ordering
// bugs (skipped pre-record barrier; barriers disabled entirely).
#include <gtest/gtest.h>

#include "src/fault/crash_sweep.h"

namespace splitio {
namespace {


CrashSweepOptions Base(SchedKind sched, bool xfs) {
  CrashSweepOptions options;
  options.sched = sched;
  options.xfs = xfs;
  options.horizon = Sec(5);
  options.crash_points = 5;
  options.record_crash_points = 12;
  options.seed = 1;
  return options;
}

void ExpectClean(const CrashSweepOptions& options) {
  CrashSweepResult result = RunCrashSweep(options);
  SCOPED_TRACE(std::string(SchedName(options.sched)) +
               (options.xfs ? "/xfs" : "/ext4"));
  EXPECT_GT(result.crash_points, 0u);
  EXPECT_GT(result.wal_acked_ok, 0u);
  EXPECT_GT(result.checked_acks, 0u);
  EXPECT_GT(result.device_flushes, 0u);
  if (!options.xfs) {
    EXPECT_GT(result.replayed_commits, 0u);
  }
  EXPECT_TRUE(result.ok()) << result.FirstViolation();
}

TEST(CrashSweep, SplitTokenExt4) {
  ExpectClean(Base(SchedKind::kSplitToken, false));
}
TEST(CrashSweep, SplitTokenXfs) {
  ExpectClean(Base(SchedKind::kSplitToken, true));
}
TEST(CrashSweep, SplitDeadlineExt4) {
  ExpectClean(Base(SchedKind::kSplitDeadline, false));
}
TEST(CrashSweep, SplitDeadlineXfs) {
  ExpectClean(Base(SchedKind::kSplitDeadline, true));
}
TEST(CrashSweep, AfqExt4) { ExpectClean(Base(SchedKind::kAfq, false)); }
TEST(CrashSweep, AfqXfs) { ExpectClean(Base(SchedKind::kAfq, true)); }
TEST(CrashSweep, NoopExt4) { ExpectClean(Base(SchedKind::kNoop, false)); }
TEST(CrashSweep, NoopXfs) { ExpectClean(Base(SchedKind::kNoop, true)); }
TEST(CrashSweep, CfqExt4) { ExpectClean(Base(SchedKind::kCfq, false)); }
TEST(CrashSweep, CfqXfs) { ExpectClean(Base(SchedKind::kCfq, true)); }
TEST(CrashSweep, BlockDeadlineExt4) {
  ExpectClean(Base(SchedKind::kBlockDeadline, false));
}
TEST(CrashSweep, BlockDeadlineXfs) {
  ExpectClean(Base(SchedKind::kBlockDeadline, true));
}

TEST(CrashSweep, SplitDeadlineExt4Ssd) {
  CrashSweepOptions options = Base(SchedKind::kSplitDeadline, false);
  options.ssd = true;
  ExpectClean(options);
}

// blk-mq topologies: with several hardware contexts and a deep device
// command queue, writes complete out of dispatch order — the flush barrier
// must still give jbd2 (ext4) and XFS their ordering points.
CrashSweepOptions WithMq(CrashSweepOptions options, int hw, int depth) {
  options.mq_hw_queues = hw;
  options.mq_queue_depth = depth;
  return options;
}

TEST(CrashSweep, MqSplitTokenExt4Ssd) {
  CrashSweepOptions options = WithMq(Base(SchedKind::kSplitToken, false), 2, 4);
  options.ssd = true;
  ExpectClean(options);
}

TEST(CrashSweep, MqSplitTokenXfs) {
  ExpectClean(WithMq(Base(SchedKind::kSplitToken, true), 2, 4));
}

TEST(CrashSweep, MqSplitDeadlineExt4) {
  ExpectClean(WithMq(Base(SchedKind::kSplitDeadline, false), 4, 8));
}

TEST(CrashSweep, MqSplitDeadlineXfsHddNcq) {
  // HDD with NCQ-style shortest-positioning selection under XFS.
  ExpectClean(WithMq(Base(SchedKind::kSplitDeadline, true), 2, 8));
}

TEST(CrashSweep, MqCfqExt4QueueDepth) {
  // Single-queue elevator: collapses to one hardware context, but the
  // device command queue still runs at depth 4.
  ExpectClean(WithMq(Base(SchedKind::kCfq, false), 2, 4));
}

// Transient EIO + latency spikes running alongside crash exploration: failed
// fsyncs promise nothing, successful ones must still hold.
TEST(CrashSweep, ConsistentUnderTransientFaults) {
  CrashSweepOptions options = Base(SchedKind::kSplitToken, false);
  options.inject_faults = true;
  CrashSweepResult result = RunCrashSweep(options);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_TRUE(result.ok()) << result.FirstViolation();
}

// Injected jbd2 ordering bug: commit record written without the pre-record
// flush. The adversarial record-completion crash points must expose a
// committed transaction whose ordered data never reached media.
TEST(CrashSweep, MissingPreflushBarrierIsCaught) {
  CrashSweepOptions options = Base(SchedKind::kSplitDeadline, false);
  options.horizon = Sec(8);
  options.record_crash_points = 32;
  options.buggy_skip_preflush = true;
  CrashSweepResult result = RunCrashSweep(options);
  EXPECT_GT(result.total_violations, 0u);
}

// No barriers at all with a volatile write cache: fsync acknowledgments are
// hollow and the checker must say so, on both file systems.
TEST(CrashSweep, DisabledBarriersAreCaughtExt4) {
  CrashSweepOptions options = Base(SchedKind::kSplitToken, false);
  options.durability_barriers = false;
  EXPECT_GT(RunCrashSweep(options).total_violations, 0u);
}

TEST(CrashSweep, DisabledBarriersAreCaughtXfs) {
  CrashSweepOptions options = Base(SchedKind::kAfq, true);
  options.durability_barriers = false;
  EXPECT_GT(RunCrashSweep(options).total_violations, 0u);
}

// Same options + same seed => bit-identical sweep statistics.
TEST(CrashSweep, DeterministicForSeed) {
  CrashSweepOptions options = Base(SchedKind::kSplitToken, false);
  options.inject_faults = true;
  CrashSweepResult a = RunCrashSweep(options);
  CrashSweepResult b = RunCrashSweep(options);
  EXPECT_EQ(a.crash_points, b.crash_points);
  EXPECT_EQ(a.total_violations, b.total_violations);
  EXPECT_EQ(a.replayed_commits, b.replayed_commits);
  EXPECT_EQ(a.checked_commits, b.checked_commits);
  EXPECT_EQ(a.checked_acks, b.checked_acks);
  EXPECT_EQ(a.wal_acked_ok, b.wal_acked_ok);
  EXPECT_EQ(a.fsync_errors, b.fsync_errors);
  EXPECT_EQ(a.device_flushes, b.device_flushes);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

}  // namespace
}  // namespace splitio
