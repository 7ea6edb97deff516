// Tests for the fault-injection subsystem: deterministic seed-driven
// decisions, and transient-EIO propagation from the device / block layer up
// to syscall return values without wedging writeback or dispatch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/fault/fault_injector.h"
#include "src/sched/composed.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

FaultConfig NoisyConfig(uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.write_eio_rate = 0.3;
  config.read_eio_rate = 0.2;
  config.latency_spike_rate = 0.25;
  return config;
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultInjector a(NoisyConfig(42));
  FaultInjector b(NoisyConfig(42));
  for (int i = 0; i < 256; ++i) {
    DeviceRequest req{static_cast<uint64_t>(i) * 8, kPageSize, (i % 3) != 0};
    DeviceFaultHook::Outcome oa = a.OnDeviceRequest(req);
    DeviceFaultHook::Outcome ob = b.OnDeviceRequest(req);
    EXPECT_EQ(oa.error, ob.error);
    EXPECT_EQ(oa.extra_latency, ob.extra_latency);
  }
  EXPECT_EQ(a.requests_seen(), 256u);
  EXPECT_GT(a.eios_injected(), 0u);
  EXPECT_GT(a.spikes_injected(), 0u);
  EXPECT_EQ(a.eios_injected(), b.eios_injected());
  EXPECT_EQ(a.spikes_injected(), b.spikes_injected());
}

TEST(FaultInjector, SeedChangesDecisions) {
  FaultInjector a(NoisyConfig(1));
  FaultInjector b(NoisyConfig(2));
  int diffs = 0;
  for (int i = 0; i < 256; ++i) {
    DeviceRequest req{static_cast<uint64_t>(i) * 8, kPageSize, true};
    DeviceFaultHook::Outcome oa = a.OnDeviceRequest(req);
    DeviceFaultHook::Outcome ob = b.OnDeviceRequest(req);
    diffs += (oa.error != ob.error || oa.extra_latency != ob.extra_latency);
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, DisabledInjectsNothing) {
  FaultInjector injector(NoisyConfig(42));
  injector.set_enabled(false);
  for (int i = 0; i < 64; ++i) {
    DeviceFaultHook::Outcome out = injector.OnDeviceRequest(
        {static_cast<uint64_t>(i) * 8, kPageSize, true});
    EXPECT_EQ(out.error, 0);
    EXPECT_EQ(out.extra_latency, 0);
  }
  EXPECT_EQ(injector.eios_injected(), 0u);
  EXPECT_EQ(injector.spikes_injected(), 0u);
}

// End-to-end scenario: with every device I/O failing, the cache write still
// succeeds, fsync surfaces the error, and — after the fault clears — the
// very same inode writes, syncs, and reads normally (nothing wedged).
Task<void> EioScenario(StorageStack& stack, FaultInjector& injector,
                       Process& proc, std::vector<int64_t>* results) {
  OsKernel& kernel = stack.kernel();
  int64_t ino = co_await kernel.Creat(proc, "/victim");
  results->push_back(co_await kernel.Write(proc, ino, 0, kPageSize));
  results->push_back(co_await kernel.Fsync(proc, ino));
  injector.set_enabled(false);
  results->push_back(co_await kernel.Write(proc, ino, kPageSize, kPageSize));
  results->push_back(co_await kernel.Fsync(proc, ino));
  // Evict the (clean) cached pages so reads must hit the (faulty) device;
  // holes and cache hits would complete without any I/O.
  injector.set_enabled(true);
  stack.cache().Free(ino, 0);
  stack.cache().Free(ino, 1);
  results->push_back(co_await kernel.Read(proc, ino, 0, kPageSize));
  injector.set_enabled(false);
  results->push_back(co_await kernel.Read(proc, ino, 0, kPageSize));
}

void RunEioScenario(std::unique_ptr<SplitScheduler> sched,
                    std::unique_ptr<Elevator> legacy, bool block_layer_hook) {
  Simulator sim;
  CpuModel cpu(4);
  StackConfig config;
  StorageStack stack(config, &cpu, std::move(sched), std::move(legacy));

  FaultConfig fault_config;
  fault_config.seed = 7;
  fault_config.write_eio_rate = 1.0;
  fault_config.read_eio_rate = 1.0;
  FaultInjector injector(fault_config);
  if (block_layer_hook) {
    stack.block().set_fault_hook(
        [&injector](const BlockRequest& req) {
          return injector.OnBlockRequest(req);
        });
  } else {
    stack.device().set_fault_hook(&injector);
  }

  stack.Start();
  Process* proc = stack.NewProcess("app");
  std::vector<int64_t> results;
  sim.Spawn(EioScenario(stack, injector, *proc, &results));
  sim.Run(Sec(30));

  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0], static_cast<int64_t>(kPageSize));  // cache write ok
  EXPECT_LT(results[1], 0);                                // fsync sees EIO
  EXPECT_EQ(results[2], static_cast<int64_t>(kPageSize));
  EXPECT_EQ(results[3], 0);                                // healed fsync ok
  EXPECT_LT(results[4], 0);                                // read EIO
  EXPECT_EQ(results[5], static_cast<int64_t>(kPageSize));  // healed read ok
}

TEST(FaultPropagation, DeviceEioSurfacesAndHealsSplitStack) {
  RunEioScenario(std::make_unique<ComposedScheduler>(SplitDeadlineSpec()),
                 nullptr, /*block_layer_hook=*/false);
}

TEST(FaultPropagation, DeviceEioSurfacesAndHealsLegacyStack) {
  RunEioScenario(nullptr, std::make_unique<NoopElevator>(),
                 /*block_layer_hook=*/false);
}

TEST(FaultPropagation, BlockLayerHookSurfacesAndHeals) {
  RunEioScenario(std::make_unique<ComposedScheduler>(SplitDeadlineSpec()),
                 nullptr, /*block_layer_hook=*/true);
}

}  // namespace
}  // namespace splitio
