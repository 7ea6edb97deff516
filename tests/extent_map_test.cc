// Run-length extent map: unit tests, a differential check against a
// per-page reference model over seeded random operation sequences, and
// allocation pins for preallocation and sequential writeback.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/fs/extent_map.h"
#include "src/fs/filesystem.h"
#include "src/metrics/counters.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

constexpr uint64_t kSpp = kSectorsPerPage;

TEST(ExtentMap, SequentialPagesMergeIntoOneRun) {
  ExtentMap m;
  for (uint64_t p = 0; p < 1000; ++p) {
    m.Assign(p, 5000 + p * kSpp);
  }
  EXPECT_EQ(m.runs(), 1u);
  EXPECT_EQ(m.pages(), 1000u);
  EXPECT_EQ(m.Find(999), 5000 + 999 * kSpp);
  EXPECT_EQ(m.Find(1000), std::nullopt);
}

TEST(ExtentMap, GapFillMergesBothNeighbours) {
  ExtentMap m;
  m.Assign(0, 0, 4);
  m.Assign(5, 5 * kSpp, 4);
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_EQ(m.Find(4), std::nullopt);  // hole
  m.Assign(4, 4 * kSpp);
  EXPECT_EQ(m.runs(), 1u);
  EXPECT_EQ(m.pages(), 9u);
}

TEST(ExtentMap, RemapSplitsAndRemapBackMerges) {
  ExtentMap m;
  m.Assign(0, 800, 100);
  m.Assign(50, 99000);  // out of place, mid-run
  EXPECT_EQ(m.runs(), 3u);
  EXPECT_EQ(m.Find(49), 800 + 49 * kSpp);
  EXPECT_EQ(m.Find(50), 99000u);
  EXPECT_EQ(m.Find(51), 800 + 51 * kSpp);
  m.Assign(50, 800 + 50 * kSpp);
  EXPECT_EQ(m.runs(), 1u);
}

TEST(ExtentMap, RangeAssignOverwritesSeveralRuns) {
  ExtentMap m;
  m.Assign(0, 0, 10);
  m.Assign(12, 7000, 10);
  m.Assign(25, 9000, 10);
  m.Assign(5, 40000, 25);  // covers the tail of run 1, run 2, head of run 3
  EXPECT_EQ(m.runs(), 3u);
  EXPECT_EQ(m.Find(4), 4 * kSpp);
  EXPECT_EQ(m.Find(11), 40000 + 6 * kSpp);  // was a hole
  EXPECT_EQ(m.Find(29), 40000 + 24 * kSpp);
  EXPECT_EQ(m.Find(30), 9000 + 5 * kSpp);
  EXPECT_EQ(m.pages(), 35u);
}

// Per-page reference of ExtentAllocator + Inode::extents: plain maps, one
// entry per page and per chunk.
struct ModelFile {
  std::map<uint64_t, uint64_t> chunks;  // chunk -> base sector
  std::map<uint64_t, uint64_t> pages;   // page -> sector
};

struct Model {
  Model(uint64_t start, uint64_t chunk) : cursor(start), chunk_pages(chunk) {}

  uint64_t Slot(ModelFile& f, uint64_t page) {
    auto [it, inserted] = f.chunks.try_emplace(page / chunk_pages, cursor);
    if (inserted) {
      cursor += chunk_pages * kSpp;
    }
    return it->second + (page % chunk_pages) * kSpp;
  }
  bool MapPage(ModelFile& f, uint64_t page) {
    if (f.pages.count(page) != 0) {
      return false;
    }
    f.pages[page] = Slot(f, page);
    return true;
  }

  uint64_t cursor;
  uint64_t chunk_pages;
};

// Minimal run count of a per-page map: a new run starts wherever the page
// or the sector does not continue the previous entry.
size_t MinimalRuns(const std::map<uint64_t, uint64_t>& pages) {
  size_t runs = 0;
  uint64_t prev_page = 0;
  uint64_t prev_sector = 0;
  for (const auto& [page, sector] : pages) {
    if (runs == 0 || page != prev_page + 1 ||
        sector != prev_sector + kSpp) {
      ++runs;
    }
    prev_page = page;
    prev_sector = sector;
  }
  return runs;
}

void ExpectSame(const Inode& real, const ModelFile& model,
                uint64_t chunk_pages, uint64_t max_page) {
  for (uint64_t p = 0; p < max_page; ++p) {
    auto it = model.pages.find(p);
    std::optional<uint64_t> want;
    if (it != model.pages.end()) {
      want = it->second;
    }
    ASSERT_EQ(real.extents.Find(p), want) << "page " << p;
    auto c = model.chunks.find(p / chunk_pages);
    std::optional<uint64_t> slot;
    if (c != model.chunks.end()) {
      slot = c->second + (p % chunk_pages) * kSpp;
    }
    ASSERT_EQ(real.reserved.Find(p), slot) << "page " << p;
  }
  ASSERT_EQ(real.extents.pages(), model.pages.size());
  // The run map is canonical: no two adjacent runs could have merged.
  ASSERT_EQ(real.extents.runs(), MinimalRuns(model.pages));
}

// Seeded random op sequences over two files sharing one allocator:
// preallocation (with a partial last chunk), delayed allocation in random
// page order (interleaving the files at chunk granularity, holes left
// behind, pages past EOF inside a reserved chunk), copy-on-write remaps
// that split runs mid-way, and remaps of adjacent pages back to their
// chunk slots, which must merge again.
TEST(ExtentMap, MatchesPerPageReferenceModel) {
  constexpr uint64_t kChunk = 16;
  constexpr uint64_t kMaxPage = 8 * kChunk;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ExtentAllocator alloc(1000, kChunk);
    Model model(1000, kChunk);
    Inode real[2];
    ModelFile ref[2];
    uint64_t cow_head = 1ULL << 30;  // out-of-place log head

    if (rng.Below(2) == 0) {
      // Partial last chunk: the chunk is reserved whole, mapped to EOF.
      uint64_t pages = 1 + rng.Below(3 * kChunk);
      alloc.Preallocate(real[0], pages);
      for (uint64_t p = 0; p < pages; ++p) {
        model.MapPage(ref[0], p);
      }
    }
    for (int op = 0; op < 200; ++op) {
      int f = static_cast<int>(rng.Below(2));
      uint64_t page = rng.Below(kMaxPage);
      switch (rng.Below(4)) {
        case 0:
        case 1: {  // delayed allocation of a short random-order batch
          uint64_t n = 1 + rng.Below(kChunk / 2);
          for (uint64_t i = 0; i < n; ++i) {
            uint64_t p = (page + rng.Below(kChunk)) % kMaxPage;
            ASSERT_EQ(alloc.MapPage(real[f], p), model.MapPage(ref[f], p));
          }
          break;
        }
        case 2: {  // CoW remap of a short range to the log head
          uint64_t n = 1 + rng.Below(4);
          for (uint64_t i = 0; i < n && page + i < kMaxPage; ++i) {
            if (ref[f].pages.count(page + i) == 0) {
              continue;  // only allocated pages are rewritten out of place
            }
            real[f].extents.Assign(page + i, cow_head);
            ref[f].pages[page + i] = cow_head;
            cow_head += kSpp;
          }
          break;
        }
        case 3: {  // remap adjacent pages back to their chunk slots
          uint64_t n = 1 + rng.Below(kChunk);
          for (uint64_t i = 0; i < n && page + i < kMaxPage; ++i) {
            uint64_t p = page + i;
            auto c = ref[f].chunks.find(p / kChunk);
            if (ref[f].pages.count(p) == 0 || c == ref[f].chunks.end()) {
              continue;
            }
            uint64_t slot = c->second + (p % kChunk) * kSpp;
            real[f].extents.Assign(p, slot);
            ref[f].pages[p] = slot;
          }
          break;
        }
      }
      ASSERT_EQ(alloc.cursor(), model.cursor);
      for (int g = 0; g < 2; ++g) {
        ExpectSame(real[g], ref[g], kChunk, kMaxPage + kChunk);
      }
    }
  }
}

// Preallocation past EOF: the last chunk is reserved whole, so a later
// write past EOF inside it lands on the chunk's slot, and a page of the
// next chunk reserves a fresh one.
TEST(ExtentMap, PagesPastEofUseTheReservedChunk) {
  ExtentAllocator alloc(0, 16);
  Inode f;
  alloc.Preallocate(f, 20);  // chunk 0 whole, chunk 1 pages 16..19
  EXPECT_EQ(f.extents.runs(), 1u);
  EXPECT_EQ(f.extents.Find(20), std::nullopt);
  uint64_t cursor = alloc.cursor();
  EXPECT_TRUE(alloc.MapPage(f, 25));
  EXPECT_EQ(f.extents.Find(25), 25 * kSpp);
  EXPECT_EQ(alloc.cursor(), cursor);
  EXPECT_TRUE(alloc.MapPage(f, 32));
  EXPECT_EQ(f.extents.Find(32), cursor);
  EXPECT_FALSE(alloc.MapPage(f, 32));
}

StackConfig Ext4Hdd() {
  StackConfig config;
  config.fs = StackConfig::FsKind::kExt4;
  return config;
}

// A sequentially reserved file is one run: preallocating 16 GiB (2048
// chunks, 4.2M pages) costs a handful of allocations, not one per page or
// per chunk.
TEST(ExtentMap, PreallocationAllocatesPerRunNotPerPage) {
  Simulator sim;
  CpuModel cpu(8);
  StorageStack stack(Ext4Hdd(), &cpu, nullptr,
                     std::make_unique<NoopElevator>());
  uint64_t before = counters().allocs;
  stack.fs().CreatePreallocated("/big", 16ULL << 30);
  EXPECT_LT(counters().allocs - before, 64u);
}

// Writing and fsyncing a fresh sequential 4 MiB file (1024 pages) adds O(1)
// extent nodes: the fsync's delayed allocation extends one run. The fsync
// as a whole (requests, journal commit, coroutine frames) stays far below
// one allocation per page.
TEST(ExtentMap, SequentialFsyncAllocatesPerRunNotPerPage) {
  Simulator sim;
  CpuModel cpu(8);
  StackConfig config = Ext4Hdd();
  config.cache.writeback_daemon = false;
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  stack.Start();
  Process* p = stack.NewProcess("writer");
  uint64_t fsync_allocs = 0;
  int rc = -1;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 4 << 20);
    uint64_t before = counters().allocs;
    rc = co_await stack.kernel().Fsync(*p, ino);
    fsync_allocs = counters().allocs - before;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  EXPECT_EQ(rc, 0);
  EXPECT_GT(fsync_allocs, 0u);
  EXPECT_LT(fsync_allocs, 256u);
}

}  // namespace
}  // namespace splitio
