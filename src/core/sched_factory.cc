#include "src/core/sched_factory.h"

#include "src/block/block_deadline.h"
#include "src/block/cfq.h"
#include "src/block/noop.h"

namespace splitio {

SchedInstance MakeSched(const PolicySpec& spec) {
  SchedInstance out;
  switch (spec.dispatch) {
    case DispatchKind::kLegacyNoop:
      out.legacy = std::make_unique<NoopElevator>();
      break;
    case DispatchKind::kLegacyCfq:
      out.legacy = std::make_unique<CfqElevator>(spec.legacy_cfq);
      break;
    case DispatchKind::kLegacyDeadline:
      out.legacy =
          std::make_unique<BlockDeadlineElevator>(spec.legacy_deadline);
      break;
    default:
      out.split = std::make_unique<ComposedScheduler>(spec);
      break;
  }
  return out;
}

}  // namespace splitio
