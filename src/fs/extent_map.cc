#include "src/fs/extent_map.h"

#include <iterator>

namespace splitio {

std::map<uint64_t, ExtentMap::Run>::iterator ExtentMap::SplitAt(
    uint64_t page) {
  auto it = runs_.lower_bound(page);
  if ((it != runs_.end() && it->first == page) || it == runs_.begin()) {
    return it;
  }
  auto prev = std::prev(it);
  uint64_t offset = page - prev->first;
  if (offset >= prev->second.pages) {
    return it;
  }
  Run tail{prev->second.pages - offset,
           prev->second.sector + offset * kSectorsPerPage};
  prev->second.pages = offset;
  return runs_.emplace_hint(it, page, tail);
}

void ExtentMap::Assign(uint64_t page, uint64_t sector, uint64_t count) {
  if (count == 0) {
    return;
  }
  const uint64_t end = page + count;
  // Cut [page, end) out of the existing runs, unless nothing there is
  // mapped yet (delayed allocation and preallocation, the hot cases).
  auto next = runs_.lower_bound(page);
  bool mapped = (next != runs_.end() && next->first < end) ||
                (next != runs_.begin() &&
                 std::prev(next)->first + std::prev(next)->second.pages >
                     page);
  if (mapped) {
    SplitAt(end);
    auto first = SplitAt(page);
    next = runs_.erase(first, runs_.lower_bound(end));
  }

  // [page, end) is unmapped now and `next` is the first run after it.
  // Extend the predecessor if it continues into the range, else insert a
  // run; then absorb the successor if the range continues into it.
  auto it = next;
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.pages == page &&
        prev->second.sector + prev->second.pages * kSectorsPerPage ==
            sector) {
      prev->second.pages += count;
      it = prev;
    }
  }
  if (it == next) {
    it = runs_.emplace_hint(next, page, Run{count, sector});
  }
  if (next != runs_.end() && next->first == end &&
      next->second.sector ==
          it->second.sector + it->second.pages * kSectorsPerPage) {
    it->second.pages += next->second.pages;
    runs_.erase(next);
  }
}

uint64_t ExtentMap::pages() const {
  uint64_t total = 0;
  for (const auto& [first, run] : runs_) {
    total += run.pages;
  }
  return total;
}

}  // namespace splitio
