// Scheduler factory: MakeSched(spec) is the one constructor of a scheduler.
// The bench harness, the stress subsystem, the apps and the tests all build
// stacks through it, so "all schedulers" means the registry's set
// (src/sched/policy.h) everywhere.
#ifndef SRC_CORE_SCHED_FACTORY_H_
#define SRC_CORE_SCHED_FACTORY_H_

#include <memory>

#include "src/block/elevator.h"
#include "src/sched/composed.h"
#include "src/sched/policy.h"

namespace splitio {

// Exactly one member is non-null — matching StorageStack's constructor
// contract (split scheduler vs legacy block-only elevator).
struct SchedInstance {
  std::unique_ptr<ComposedScheduler> split;
  std::unique_ptr<Elevator> legacy;
};

// Builds a scheduler from a declarative spec: a legacy elevator for the
// legacy dispatch kinds, a ComposedScheduler otherwise. The spec must pass
// ValidateSpec.
SchedInstance MakeSched(const PolicySpec& spec);

inline SchedInstance MakeSched(SchedKind kind) {
  return MakeSched(SpecForKind(kind));
}

}  // namespace splitio

#endif  // SRC_CORE_SCHED_FACTORY_H_
