// Crash-point explorer: runs a WAL + checkpoint workload on one scheduler /
// file-system / device combination with the volatile write cache enabled,
// snapshots crash images at randomized points, and checks every image with
// the recovery checker. Used by the crash-consistency ctest suite and by
// bench_crash_consistency.
#ifndef SRC_FAULT_CRASH_SWEEP_H_
#define SRC_FAULT_CRASH_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/crash_checker.h"
#include "src/sched/policy.h"
#include "src/sim/time.h"

namespace splitio {

struct CrashSweepOptions {
  SchedKind sched = SchedKind::kSplitDeadline;
  bool xfs = false;  // ext4 otherwise
  bool ssd = false;  // HDD otherwise
  Nanos horizon = Sec(10);
  int crash_points = 8;
  // Additional adversarial crash points taken the instant a journal record
  // completes (before its post-record flush) — the window that exposes a
  // missing pre-record barrier. Capped at this many images.
  int record_crash_points = 16;
  uint64_t seed = 1;
  // Transient faults (EIO + latency spikes) during the run, on top of crash
  // exploration.
  bool inject_faults = false;
  // Durability barriers on (the correct configuration). Turning them off
  // with the volatile cache enabled is itself an ordering bug the checker
  // should flag.
  bool durability_barriers = true;
  // Test-only jbd2 bug: commit record written without the pre-record
  // barrier (ext4 only). The checker must catch this.
  bool buggy_skip_preflush = false;
  // Block-layer queue topology. Values > 1 enable blk-mq with that many
  // hardware dispatch contexts / that command-queue depth, so crash
  // exploration also covers reordering from concurrent device commands.
  int mq_hw_queues = 1;
  int mq_queue_depth = 1;
};

struct CrashSweepResult {
  uint64_t crash_points = 0;
  uint64_t total_violations = 0;
  uint64_t replayed_commits = 0;  // summed over crash points
  uint64_t checked_commits = 0;
  uint64_t checked_acks = 0;
  uint64_t wal_acked_ok = 0;     // fsyncs acknowledged to the WAL writer
  uint64_t fsync_errors = 0;     // negative fsync returns seen by workloads
  uint64_t write_errors = 0;     // negative write returns seen by workloads
  uint64_t device_flushes = 0;
  uint64_t faults_injected = 0;
  std::vector<CrashReport> reports;  // one per crash point

  bool ok() const { return total_violations == 0; }
  // First failing report's description (empty when ok).
  std::string FirstViolation() const;
};

CrashSweepResult RunCrashSweep(const CrashSweepOptions& options);

}  // namespace splitio

#endif  // SRC_FAULT_CRASH_SWEEP_H_
