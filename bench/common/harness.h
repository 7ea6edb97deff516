// Shared benchmark harness: stack construction by scheduler name and
// table-printing helpers. Each bench binary regenerates one table or figure
// from the paper; output is plain aligned text so shapes are easy to eyeball
// and diff.
#ifndef BENCH_COMMON_HARNESS_H_
#define BENCH_COMMON_HARNESS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/report.h"
#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace splitio {

// A stack plus the scheduler benches poke (token limits, probes).
struct Bundle {
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
  ComposedScheduler* composed = nullptr;  // null for a legacy elevator
};

struct BundleOptions {
  int cores = 8;
  StackConfig stack;
};

inline Bundle MakeBundle(const PolicySpec& spec,
                         BundleOptions opt = BundleOptions()) {
  Bundle b;
  b.cpu = std::make_unique<CpuModel>(opt.cores);
  SchedInstance inst = MakeSched(spec);
  b.composed = inst.split.get();
  b.stack = std::make_unique<StorageStack>(opt.stack, b.cpu.get(),
                                           std::move(inst.split),
                                           std::move(inst.legacy));
  b.stack->Start();
  return b;
}

// RAII: snapshots the global counters at construction and reports the delta
// under `label` (via ReportStackCounters) at destruction. Wrap one stack's
// whole lifetime — construction, workload, teardown — so the BENCHJSON
// per_stack object attributes counter activity to that scheduler:
//
//   { StackCounterScope scope(SchedName(kind));
//     Bundle b = MakeBundle(SpecForKind(kind), opt); ... run ... }
//
// The scope also pushes `label` onto the trace label registry, so when the
// binary runs with --trace every event (and span) emitted inside it is
// tagged with the scheduler under test.
struct StackCounterScope {
  explicit StackCounterScope(std::string label_in)
      : label(std::move(label_in)), trace_label(label), before(counters()) {}
  ~StackCounterScope() { ReportStackCounters(label, counters().Delta(before)); }
  StackCounterScope(const StackCounterScope&) = delete;
  StackCounterScope& operator=(const StackCounterScope&) = delete;

  std::string label;
  obs::ScopedTraceLabel trace_label;
  Counters before;
};

inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%lluMB",
                  static_cast<unsigned long long>(bytes >> 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluKB",
                  static_cast<unsigned long long>(bytes >> 10));
  }
  return buf;
}

}  // namespace splitio

#endif  // BENCH_COMMON_HARNESS_H_
