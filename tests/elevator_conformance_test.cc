// Elevator conformance: shared invariants every scheduler must uphold on
// both dispatch topologies (legacy single-queue and blk-mq).
//
// For each (scheduler, topology) pair a full stack runs a mixed workload —
// two writers with fsyncs plus a random reader — and the test asserts:
//  - no request is dropped: everything submitted completes or merges once
//    the workload quiesces;
//  - no completion without dispatch: every successfully completed request
//    carries device service evidence (service_time, and a media sequence
//    number for writes);
//  - flush ordering: when a flush barrier completes, every write that
//    completed before it is durable (device durable_seq covers it), on
//    every hardware queue;
//  - the device command queue is drained at quiescence.
//
// A second suite pins down topology equivalence: with one hardware queue
// and command-queue depth 1, the mq path must reproduce the legacy
// dispatch exactly (same bytes moved, same request counts, same device
// busy time) for every scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace splitio {
namespace {

// gtest parameter label of a registered scheduler name: the name without
// hyphens ("split-token" -> "splittoken"); block-noop keeps its older
// label "noop".
std::string SchedLabel(const char* name) {
  std::string label;
  for (const char* c = name; *c != '\0'; ++c) {
    if (*c != '-') {
      label += *c;
    }
  }
  return label == "blocknoop" ? "noop" : label;
}

struct ConformanceStack {
  ConformanceStack(const char* sched, const BlockMqConfig& mq) {
    StackConfig config;
    config.device = StackConfig::DeviceKind::kSsd;
    config.ssd.channels = 4;
    config.mq = mq;
    // Volatile write cache + barriers so flushes are real ordering points.
    config.volatile_write_cache = true;
    config.layout.durability_barriers = true;
    cpu = std::make_unique<CpuModel>(8);
    PolicySpec spec;
    EXPECT_TRUE(NamedPolicySpec(sched, &spec)) << sched;
    SchedInstance inst = MakeSched(spec);
    stack = std::make_unique<StorageStack>(config, cpu.get(),
                                           std::move(inst.split),
                                           std::move(inst.legacy));
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
};

// Outcome of one workload run, for cross-topology comparison.
struct RunOutcome {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t merged = 0;
  uint64_t device_bytes_read = 0;
  uint64_t device_bytes_written = 0;
  Nanos device_busy = 0;
  uint64_t flushes = 0;
};

// Two writers (write + fsync rounds) and one random reader; bounded op
// counts so the stack quiesces, then a generous horizon drains background
// writeback/journal activity.
RunOutcome RunMixedWorkload(ConformanceStack& h, bool check_invariants) {
  Simulator& sim = Simulator::current();
  BlockLayer& block = h.stack->block();
  BlockDevice& device = h.stack->device();

  // Invariant probes, fed by the block layer's completion stream.
  uint64_t max_completed_write_seq = 0;
  if (check_invariants) {
    block.add_completion_hook([&](const BlockRequest& req) {
      if (req.result != 0) {
        return;  // failed requests carry no service evidence
      }
      if (req.is_flush) {
        // Flush barrier: everything that completed before this flush must
        // be durable by the time the flush completes.
        EXPECT_GE(device.durable_seq(), max_completed_write_seq)
            << "flush completed without covering an earlier write";
        return;
      }
      // Completion implies dispatch: the device stamped a service time,
      // and writes got a media sequence number.
      EXPECT_GT(req.service_time, 0) << "completed request never serviced";
      if (req.is_write) {
        EXPECT_GT(req.device_seq, 0u) << "completed write has no media seq";
        max_completed_write_seq =
            std::max(max_completed_write_seq, req.device_seq);
      }
    });
  }

  Process* w1 = h.stack->NewProcess("writer1");
  Process* w2 = h.stack->NewProcess("writer2");
  Process* rd = h.stack->NewProcess("reader");
  int64_t src = h.stack->fs().CreatePreallocated("/src", 512ULL << 20);

  int finished = 0;
  // `path` by value: a coroutine's reference parameters dangle once the
  // caller's temporaries die at the first suspension point.
  auto writer = [&](Process* p, std::string path) -> Task<void> {
    OsKernel& kernel = h.stack->kernel();
    int64_t ino = co_await kernel.Creat(*p, path);
    for (int round = 0; round < 4; ++round) {
      co_await kernel.Write(*p, ino,
                            static_cast<uint64_t>(round) * 64 * kPageSize,
                            64 * kPageSize);
      co_await kernel.Fsync(*p, ino);
    }
    ++finished;
  };
  auto reader = [&]() -> Task<void> {
    WorkloadStats stats;
    co_await RandomReader(h.stack->kernel(), *rd, src, 512ULL << 20, 4096,
                          /*seed=*/7, /*until=*/Msec(200), &stats);
    ++finished;
  };
  sim.Spawn(writer(w1, "/a"));
  sim.Spawn(writer(w2, "/b"));
  sim.Spawn(reader());
  // Generous horizon: the op-bounded workload finishes well before this;
  // the remainder drains checkpoint/writeback stragglers. Deliberately off
  // the 5 s writeback/commit grid so no periodic task submits a request at
  // the exact cut-off instant (it would be counted but never complete).
  sim.Run(Msec(27300));
  EXPECT_EQ(finished, 3) << "workload did not complete within the horizon";

  RunOutcome out;
  out.submitted = block.total_submitted();
  out.completed = block.total_completed();
  out.merged = block.total_merged();
  out.device_bytes_read = device.total_bytes_read();
  out.device_bytes_written = device.total_bytes_written();
  out.device_busy = device.busy_time();
  out.flushes = device.flushes();

  if (check_invariants) {
    // Quiescence: nothing in flight anywhere, and nothing dropped — every
    // submitted request either completed or merged into one that did.
    EXPECT_EQ(block.inflight(), 0);
    EXPECT_EQ(device.queued_outstanding(), 0u);
    EXPECT_EQ(out.submitted, out.completed + out.merged);
    EXPECT_GT(out.flushes, 0u) << "fsync rounds should have flushed";
  }
  return out;
}

class ElevatorConformance
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(ElevatorConformance, SharedInvariantsHold) {
  auto [sched, use_mq] = GetParam();
  BlockMqConfig mq;
  if (use_mq) {
    mq.enabled = true;
    mq.nr_hw_queues = 2;
    mq.queue_depth = 4;
  }
  Simulator sim;
  ConformanceStack h(sched, mq);
  if (use_mq) {
    // Single-queue elevators must collapse to one context; mq-aware ones
    // fan out.
    int expected = h.stack->block().elevator().mq_aware() ? 2 : 1;
    EXPECT_EQ(h.stack->block().nr_hw_queues(), expected);
  }
  RunMixedWorkload(h, /*check_invariants=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ElevatorConformance,
    ::testing::Combine(
        ::testing::ValuesIn(AllPolicySpecNames()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<const char*, bool>>&
           param_info) {
      return SchedLabel(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_mq" : "_legacy");
    });

// With nr_hw_queues=1 and queue_depth=1 the mq machinery must be an exact
// behavioral match for the legacy serial dispatch loop: same requests, same
// bytes, same device busy time, same flush count.
class MqDepthOneEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(MqDepthOneEquivalence, MatchesLegacyExactly) {
  const char* sched = GetParam();
  RunOutcome legacy;
  {
    Simulator sim;
    ConformanceStack h(sched, BlockMqConfig());
    legacy = RunMixedWorkload(h, /*check_invariants=*/false);
  }
  RunOutcome mq;
  {
    Simulator sim;
    BlockMqConfig config;
    config.enabled = true;
    config.nr_hw_queues = 1;
    config.queue_depth = 1;
    ConformanceStack h(sched, config);
    mq = RunMixedWorkload(h, /*check_invariants=*/false);
  }
  EXPECT_EQ(legacy.submitted, mq.submitted);
  EXPECT_EQ(legacy.completed, mq.completed);
  EXPECT_EQ(legacy.merged, mq.merged);
  EXPECT_EQ(legacy.device_bytes_read, mq.device_bytes_read);
  EXPECT_EQ(legacy.device_bytes_written, mq.device_bytes_written);
  EXPECT_EQ(legacy.device_busy, mq.device_busy);
  EXPECT_EQ(legacy.flushes, mq.flushes);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, MqDepthOneEquivalence,
    ::testing::ValuesIn(AllPolicySpecNames()),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return SchedLabel(param_info.param);
    });

}  // namespace
}  // namespace splitio
