// Multi-tenant cloud backend — 1000 tenants, three service tiers, one
// shared stack, all eight schedulers × {legacy, mq} block topologies.
//
// Gold tenants (20%) run OLTP commits (4 KB append + fsync) under a tight
// p99.9 SLO; silver (30%) runs scans; bronze (50%) runs bulk buffered
// writes that, unthrottled, entangle every journal commit. Block-only
// schedulers can reorder bronze's *writeback* but have already accepted
// its dirty data, so gold's fsyncs wait behind megabytes of ordered
// writes and the tier's p99.9 collapses. The split-level token schedulers
// charge bronze at the write entry against a hierarchical 6 MB/s group
// budget (leaves burst to 2 MB/s), keeping commits small and gold's tail
// inside its objective — the paper's §5 isolation argument pushed to
// 10^3 tenants.
//
// Columns: per-tier op counts, gold p99.9 / worst tail, SLO-violating
// tenant counts, windowed gold burn-rate alerts (1 s windows; a window
// alerts when > 5% of its completions breach the p99.9 target — see
// BurnRateTracker), and admission-control delay/reject accounting.
// `burn@s` is the start of the earliest alerting window in seconds
// (-1: never alerted) — the "when did it go wrong" timestamp a latency
// percentile cannot give.
//
// Tenant count: --tenants N (or SPLITIO_MT_TENANTS). The self-check —
// split-token holds gold's p99.9 where CFQ breaks it — runs at >= 500
// tenants; reduced counts are for smoke runs.
#include <cstdlib>

#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/apps/cloud_backend.h"

namespace splitio {
namespace {

double Ms(Nanos ns) { return static_cast<double>(ns) / 1e6; }

// Runs one registered scheduler, canonical or hybrid, through the backend.
CloudBackendResult RunOne(const char* sched, bool mq, int tenants) {
  StackCounterScope scope(std::string(sched) + (mq ? "/mq" : "/legacy"));
  CloudBackendParams p;
  p.tenants = tenants;
  p.sched = sched;
  p.mq = mq;
  return RunCloudBackend(p);
}

double FirstBurnSec(const CloudGroupOutcome* g) {
  if (g == nullptr || g->first_burn_alert < 0) {
    return -1.0;
  }
  return static_cast<double>(g->first_burn_alert) / 1e9;
}

void PrintRow(const char* name, bool mq, const CloudBackendResult& r) {
  const CloudGroupOutcome* gold = r.Group("gold");
  const CloudGroupOutcome* silver = r.Group("silver");
  const CloudGroupOutcome* bronze = r.Group("bronze");
  std::printf("%-15s %-7s %8llu %10.1f %10.1f %5llu %5llu %7.2f %10.1f %8llu"
              " %8llu %8llu\n",
              name, mq ? "mq" : "legacy",
              static_cast<unsigned long long>(gold != nullptr ? gold->ops : 0),
              gold != nullptr ? Ms(gold->p999) : 0.0,
              gold != nullptr ? Ms(gold->max) : 0.0,
              static_cast<unsigned long long>(
                  gold != nullptr ? gold->violating_tenants : 0),
              static_cast<unsigned long long>(
                  gold != nullptr ? gold->burn_alert_windows : 0),
              FirstBurnSec(gold),
              silver != nullptr ? Ms(silver->p999) : 0.0,
              static_cast<unsigned long long>(bronze != nullptr ? bronze->ops
                                                                : 0),
              static_cast<unsigned long long>(r.admission_delayed),
              static_cast<unsigned long long>(r.admission_rejected));
}

void ReportRun(const char* name, bool mq, const CloudBackendResult& r) {
  const CloudGroupOutcome* gold = r.Group("gold");
  std::string key = std::string("mt_") + name + (mq ? "_mq" : "");
  ReportMetric(key + "_gold_p999_ms", gold != nullptr ? Ms(gold->p999) : 0.0);
  ReportMetric(key + "_gold_viol",
               gold != nullptr
                   ? static_cast<double>(gold->violating_tenants)
                   : 0.0);
  ReportMetric(key + "_ops", static_cast<double>(r.total_ops));
  ReportMetric(key + "_adm_delayed",
               static_cast<double>(r.admission_delayed));
  ReportMetric(key + "_gold_burn",
               gold != nullptr
                   ? static_cast<double>(gold->burn_alert_windows)
                   : 0.0);
  ReportMetric(key + "_gold_first_burn_s", FirstBurnSec(gold));
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  using namespace splitio;
  int tenants = 1000;
  if (const char* env = std::getenv("SPLITIO_MT_TENANTS")) {
    tenants = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::atoi(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      tenants = std::atoi(argv[i] + 10);
    }
  }
  ParseBenchFlags(argc, argv);

  PrintTitle("Multi-tenant cloud backend: " + std::to_string(tenants) +
             " tenants (20% gold OLTP / 30% silver scan / 50% bronze batch), "
             "gold SLO p99.9 <= 750 ms");
  std::printf("%-15s %-7s %8s %10s %10s %5s %5s %7s %10s %8s %8s %8s\n",
              "sched", "queue", "gold-ops", "gold-p999", "gold-max", "viol",
              "burn", "burn@s", "silv-p999", "brz-ops", "delayed", "rejected");

  bool split_holds = false;
  bool cfq_breaks = false;
  bool split_burn_clean = false;
  bool cfq_burns = false;
  bool conservation_ok = true;
  for (bool mq : {false, true}) {
    // The eight canonical schedulers, then the hybrid composed policies:
    // deadline dispatch over hierarchical tokens, and account-keyed AFQ —
    // same mix, same admission path.
    for (const char* sched : AllPolicySpecNames()) {
      CloudBackendResult r = RunOne(sched, mq, tenants);
      PrintRow(sched, mq, r);
      ReportRun(sched, mq, r);
      if (!r.conservation_error.empty()) {
        conservation_ok = false;
        std::printf("  !! token conservation: %s\n",
                    r.conservation_error.c_str());
      }
      const CloudGroupOutcome* gold = r.Group("gold");
      if (gold != nullptr && !mq) {
        if (std::strcmp(sched, SchedName(SchedKind::kSplitToken)) == 0) {
          split_holds = gold->violating_tenants == 0;
          split_burn_clean = gold->burn_alert_windows == 0;
        }
        if (std::strcmp(sched, SchedName(SchedKind::kCfq)) == 0) {
          cfq_breaks = gold->violating_tenants > 0;
          cfq_burns = gold->burn_alert_windows > 0;
        }
      }
    }
  }

  // Load shedding demo: same mix, reject policy — over-limit bronze calls
  // return -EAGAIN instead of queueing, so the reject accounting is
  // exercised end to end.
  {
    StackCounterScope scope("split-token/reject");
    CloudBackendParams p;
    p.tenants = tenants;
    p.admission_reject = true;
    CloudBackendResult r = RunCloudBackend(p);
    std::printf("%-15s %-7s %8s %10s %10s %5s %10s %8s %8llu %8llu\n",
                "split-token", "reject", "-", "-", "-", "-", "-", "-",
                static_cast<unsigned long long>(r.admission_delayed),
                static_cast<unsigned long long>(r.admission_rejected));
    ReportMetric("mt_reject_demo_rejected",
                 static_cast<double>(r.admission_rejected));
  }

  ReportMetric("mt_tenants", static_cast<double>(tenants));
  ReportMetric("mt_conservation_ok", conservation_ok ? 1.0 : 0.0);
  if (tenants >= 500) {
    bool pass = split_holds && cfq_breaks && split_burn_clean && cfq_burns &&
                conservation_ok;
    ReportMetric("mt_selfcheck", pass ? 1.0 : 0.0);
    std::printf("\nself-check (>=500 tenants): split-token holds gold p99.9"
                " %s; CFQ violates %s; CFQ burn alerts %s; split-token burn"
                " clean %s; budgets conserved %s => %s\n",
                split_holds ? "yes" : "NO", cfq_breaks ? "yes" : "NO",
                cfq_burns ? "yes" : "NO", split_burn_clean ? "yes" : "NO",
                conservation_ok ? "yes" : "NO", pass ? "PASS" : "FAIL");
    if (!pass) {
      return 1;
    }
  }
  return 0;
}
