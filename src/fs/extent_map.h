// Run-length map from a file's page indices to disk sectors.
//
// A run {first page, page count, first sector} maps pages
// [first, first + count) to consecutive 4 KiB slots starting at the first
// sector. A file reserved and written sequentially is a single run however
// large it is; random delayed allocation or copy-on-write remaps fragment
// the map, and filling the gaps merges it back.
#ifndef SRC_FS_EXTENT_MAP_H_
#define SRC_FS_EXTENT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "src/device/device.h"

namespace splitio {

inline constexpr uint64_t kSectorsPerPage = kPageSize / kSectorSize;

class ExtentMap {
 public:
  // Sector of `page`, or nullopt if the page is unmapped (a hole).
  std::optional<uint64_t> Find(uint64_t page) const {
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin()) {
      return std::nullopt;
    }
    --it;
    uint64_t offset = page - it->first;
    if (offset >= it->second.pages) {
      return std::nullopt;
    }
    return it->second.sector + offset * kSectorsPerPage;
  }

  // Maps pages [page, page + count) to consecutive slots from `sector`,
  // replacing whatever those pages mapped to before (splitting runs that
  // straddle the range). Merges with a neighbouring run when both the page
  // indices and the sectors continue it.
  void Assign(uint64_t page, uint64_t sector, uint64_t count = 1);

  // Number of runs (map nodes).
  size_t runs() const { return runs_.size(); }
  // Number of mapped pages.
  uint64_t pages() const;

 private:
  struct Run {
    uint64_t pages = 0;
    uint64_t sector = 0;  // sector of the run's first page
  };

  // Ensures no run straddles `page` by splitting the run that covers it;
  // returns the first run starting at or after `page`.
  std::map<uint64_t, Run>::iterator SplitAt(uint64_t page);

  // First page -> {pages, sector}. Runs never overlap, and no two adjacent
  // runs continue each other (Assign merges them), so the map is canonical.
  std::map<uint64_t, Run> runs_;
};

}  // namespace splitio

#endif  // SRC_FS_EXTENT_MAP_H_
