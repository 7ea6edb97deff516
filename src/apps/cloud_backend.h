// Cloud-backend scenario (ISSUE 7): one shared storage stack serving a
// 1000+-tenant mix — the multi-tenant experiment bench_multitenant sweeps
// across all eight schedulers.
//
// The mix is three service tiers over one HDD-backed ext4 stack:
//
//   gold   (20%) — OLTP tenants: 4 KB log append + fsync per commit, tight
//                  p99.9 SLO. The customers whose tail is the figure.
//   silver (30%) — scan tenants: 64 KB sequential reads, loose SLO.
//   bronze (50%) — batch tenants: bursts of 256 KB buffered writes with
//                  periodic fsync, no SLO, and — under the token
//                  schedulers — a shared hierarchical group budget.
//
// The mechanism under study is fsync entanglement at scale (§5, Figure 5):
// bronze dirties data faster than the disk drains it, every journal commit
// carries bronze's ordered data, and gold's fsyncs wait behind it. A
// block-level scheduler (CFQ, even at priority 1 vs 7) cannot see the
// dependency; a split-level token scheduler throttles bronze at the write
// *entry* — before pages are dirtied — so commits stay small and gold's
// p99.9 holds.
//
// Admission control (src/tenant/admission) sits in front of the syscall
// layer: per-tenant inflight caps plus token-debt gating, in delay or
// reject (-EAGAIN) mode.
#ifndef SRC_APPS_CLOUD_BACKEND_H_
#define SRC_APPS_CLOUD_BACKEND_H_

#include <string>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/tenant/registry.h"

namespace splitio {

struct CloudBackendParams {
  int tenants = 1000;
  // A registered scheduler name (canonical or hybrid, see
  // AllPolicySpecNames).
  std::string sched = SchedName(SchedKind::kSplitToken);
  bool mq = false;  // multi-queue block layer (4 hw contexts, depth 16)
  uint64_t seed = 1;
  Nanos duration = Sec(20);
  // Extra horizon after `duration` for in-flight ops to drain; ops still
  // unfinished then are recorded censored (see TenantRegistry).
  Nanos drain = Sec(20);
  bool admission = true;
  bool admission_reject = false;  // reject with -EAGAIN instead of delaying
  int max_inflight_per_tenant = 4;

  // Burn-rate alerting knobs, forwarded to TenantRegistryConfig. Defaults:
  // 1 s windows over the full horizon (duration + drain), alert when a
  // window's violating fraction exceeds budget * alert_factor (5% for a
  // 99.9% objective) with at least `burn_min_violations` breaches.
  Nanos burn_window = Sec(1);
  double burn_budget = 0.001;
  double burn_alert_factor = 50.0;
  uint64_t burn_min_violations = 2;
};

// Per-tier roll-up of the SloTracker group report.
struct CloudGroupOutcome {
  std::string name;
  int group = -1;
  uint64_t tenants = 0;
  uint64_t ops = 0;
  Nanos p50 = 0;
  Nanos p99 = 0;
  Nanos p999 = 0;
  Nanos max = 0;
  uint64_t violating_tenants = 0;
  Nanos slo_p999 = 0;  // the tier's objective (0 = none)

  // Windowed burn-rate evaluation (zeros when the tier has no p99.9
  // objective — no tracker exists then).
  uint64_t burn_windows = 0;        // windows with >= 1 completion
  uint64_t burn_alert_windows = 0;  // windows whose burn rate alerted
  Nanos first_burn_alert = -1;      // start of earliest alerting window
  double worst_burn_fraction = 0;   // worst per-window violating fraction
};

struct CloudBackendResult {
  std::vector<CloudGroupOutcome> groups;
  uint64_t total_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t violating_tenants = 0;
  uint64_t admission_admitted = 0;
  uint64_t admission_delayed = 0;
  uint64_t admission_rejected = 0;
  Nanos admission_delay = 0;
  // "" = hierarchical token budgets conserved (token schedulers only).
  std::string conservation_error;

  const CloudGroupOutcome* Group(const std::string& name) const;
};

// The standard tier mix for `tenants` total tenants (exposed so tests can
// run reduced configurations through the same classes).
std::vector<TenantClass> CloudTenantMix(int tenants);

CloudBackendResult RunCloudBackend(const CloudBackendParams& params);

}  // namespace splitio

#endif  // SRC_APPS_CLOUD_BACKEND_H_
