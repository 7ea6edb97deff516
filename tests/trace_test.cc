// Tests for the I/O trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/device/trace.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

TEST(IoTracer, RecordsCompletionsWithCauses) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  IoTracer tracer;
  tracer.Attach(&stack.block());
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 8 * kPageSize);
    co_await stack.kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  ASSERT_FALSE(tracer.entries().empty());
  bool saw_data_write = false;
  bool saw_journal = false;
  for (const TraceEntry& e : tracer.entries()) {
    EXPECT_GE(e.complete_time, e.enqueue_time);
    EXPECT_GT(e.service_time, 0);
    if (e.is_journal) {
      saw_journal = true;
    } else if (e.is_write) {
      saw_data_write = true;
      ASSERT_EQ(e.causes.size(), 1u);
      EXPECT_EQ(e.causes[0], p->pid());
    }
  }
  EXPECT_TRUE(saw_data_write);
  EXPECT_TRUE(saw_journal);
}

TEST(IoTracer, CsvHasHeaderAndRows) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  IoTracer tracer;
  tracer.Attach(&stack.block());
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = stack.fs().CreatePreallocated("/f", 1 << 20);
    co_await stack.kernel().Read(*p, ino, 0, 1 << 20);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  std::ostringstream out;
  tracer.WriteCsv(out);
  std::string csv = out.str();
  EXPECT_NE(csv.find("enqueue_ns,complete_ns,sector"), std::string::npos);
  EXPECT_NE(csv.find(",R,"), std::string::npos);
  // Header + one line per entry.
  size_t lines = static_cast<size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, tracer.entries().size() + 1);
}

TEST(IoTracer, SummarizeByCauseSplitsSharedRequests) {
  IoTracer tracer;
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  tracer.Attach(&block);
  block.Start();
  Process a(1, "a");
  auto body = [&]() -> Task<void> {
    auto req = std::make_shared<BlockRequest>();
    req->sector = 0;
    req->bytes = 2 * kPageSize;
    req->is_write = true;
    req->causes = CauseSet{1, 2};  // shared by two causes
    co_await block.SubmitAndWait(req);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  auto summary = tracer.SummarizeByCause();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[1].bytes, summary[2].bytes);
  EXPECT_EQ(summary[1].device_time, summary[2].device_time);
  EXPECT_EQ(summary[1].requests, 1u);
}

// Regression: integer division across causes used to drop up to n-1 ns and
// bytes per request, so per-cause totals no longer summed to the per-request
// totals.
TEST(IoTracer, SummarizeByCauseConservesTimeAndBytes) {
  IoTracer tracer;
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  tracer.Attach(&block);
  block.Start();
  auto body = [&]() -> Task<void> {
    auto req = std::make_shared<BlockRequest>();
    req->sector = 0;
    req->bytes = kPageSize;  // 4096: not divisible by 3 causes
    req->is_write = true;
    req->causes = CauseSet{1, 2, 3};
    co_await block.SubmitAndWait(req);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  ASSERT_EQ(tracer.entries().size(), 1u);
  const TraceEntry& e = tracer.entries()[0];
  auto summary = tracer.SummarizeByCause();
  ASSERT_EQ(summary.size(), 3u);
  uint64_t total_bytes = 0;
  Nanos total_time = 0;
  uint64_t min_bytes = e.bytes;
  uint64_t max_bytes = 0;
  for (const auto& [pid, pc] : summary) {
    total_bytes += pc.bytes;
    total_time += pc.device_time;
    min_bytes = std::min(min_bytes, pc.bytes);
    max_bytes = std::max(max_bytes, pc.bytes);
  }
  EXPECT_EQ(total_bytes, e.bytes);
  EXPECT_EQ(total_time, e.service_time);
  // Still an even split: shares differ by at most one unit.
  EXPECT_LE(max_bytes - min_bytes, 1u);
}

TEST(IoTracer, SequentialFraction) {
  IoTracer tracer;
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  tracer.Attach(&block);
  block.Start();
  auto body = [&]() -> Task<void> {
    // Three perfectly sequential writes, then one far seek.
    uint64_t sector = 0;
    for (int i = 0; i < 3; ++i) {
      auto req = std::make_shared<BlockRequest>();
      req->sector = sector;
      req->bytes = kPageSize;
      req->is_write = true;
      sector += kPageSize / kSectorSize;
      co_await block.SubmitAndWait(req);
    }
    auto far = std::make_shared<BlockRequest>();
    far->sector = 1 << 20;
    far->bytes = kPageSize;
    far->is_write = true;
    co_await block.SubmitAndWait(far);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  // 2 of 3 transitions sequential.
  EXPECT_NEAR(tracer.SequentialFraction(), 2.0 / 3.0, 1e-9);
}

TEST(IoTracer, DetachStopsRecordingAndKeepsEntries) {
  IoTracer tracer;
  tracer.Detach();  // detaching while unattached is a no-op
  EXPECT_FALSE(tracer.attached());
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  tracer.Attach(&block);
  EXPECT_TRUE(tracer.attached());
  block.Start();
  auto one_write = [&](uint64_t sector) -> Task<void> {
    auto req = std::make_shared<BlockRequest>();
    req->sector = sector;
    req->bytes = kPageSize;
    req->is_write = true;
    co_await block.SubmitAndWait(req);
  };
  auto body = [&]() -> Task<void> {
    co_await one_write(0);
    tracer.Detach();
    co_await one_write(1 << 20);  // not recorded
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  EXPECT_FALSE(tracer.attached());
  // The entry recorded before Detach survives it.
  ASSERT_EQ(tracer.entries().size(), 1u);
  EXPECT_EQ(tracer.entries()[0].sector, 0u);
}

TEST(IoTracer, CoexistsWithSplitSchedulerHook) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(1, 4.0 * 1024 * 1024);
  ComposedScheduler* token = sched.get();
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  IoTracer tracer;
  tracer.Attach(&stack.block());  // appends after the scheduler's hook
  stack.Start();
  Process* p = stack.NewProcess("app");
  p->set_account(1);
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 4 << 20);
    co_await stack.kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(20));
  // Both consumers observed the I/O: the tracer has entries AND the token
  // scheduler revised the account at block completion.
  EXPECT_FALSE(tracer.entries().empty());
  EXPECT_NE(token->account_balance(1), 0.0);
}

}  // namespace
}  // namespace splitio
