// No-op elevator: FIFO dispatch with no reordering. Used to isolate
// framework overhead (Figure 9) and as the block-level stage beneath
// system-call-only schedulers.
#ifndef SRC_BLOCK_NOOP_H_
#define SRC_BLOCK_NOOP_H_

#include <deque>
#include <string>

#include "src/block/elevator.h"
#include "src/device/device.h"

namespace splitio {

// Cap for merged requests (Linux's max_sectors analogue).
inline constexpr uint32_t kMaxMergedBytes = 1024 * 1024;

class NoopElevator : public Elevator {
 public:
  std::string name() const override { return "block-noop"; }

  // Kept single-queue for baseline fidelity: the legacy noop elevator ran
  // behind one dispatch queue (device-side NCQ still applies via depth).
  bool mq_aware() const override { return false; }

  // Back-merge with the most recently queued request (the common case for
  // streaming writers submitting contiguous runs).
  bool TryMerge(const BlockRequestPtr& req) override {
    if (queue_.empty() || req->is_flush || req->is_journal) {
      return false;
    }
    BlockRequestPtr& tail = queue_.back();
    if (tail->is_flush || tail->is_journal ||
        tail->is_write != req->is_write ||
        tail->sector + tail->bytes / kSectorSize != req->sector ||
        tail->bytes + req->bytes > kMaxMergedBytes) {
      return false;
    }
    tail->bytes += req->bytes;
    tail->causes.Merge(req->causes);
    tail->prelim_charged += req->prelim_charged;
    tail->merged.push_back(req);
    return true;
  }

  void Add(BlockRequestPtr req) override { queue_.push_back(std::move(req)); }

  BlockRequestPtr Next() override {
    if (queue_.empty()) {
      return nullptr;
    }
    BlockRequestPtr req = std::move(queue_.front());
    queue_.pop_front();
    return req;
  }

  bool Empty() const override { return queue_.empty(); }

 private:
  std::deque<BlockRequestPtr> queue_;
};

}  // namespace splitio

#endif  // SRC_BLOCK_NOOP_H_
