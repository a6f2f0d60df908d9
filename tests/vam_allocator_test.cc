// Unit tests for the FSD VAM (shadow map, persistence) and run allocator
// (big/small split, first-extent contiguity, rollback, fragmentation caps).

#include <gtest/gtest.h>

#include "src/core/allocator.h"
#include "src/core/vam.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kTotal = 10000;
constexpr std::uint32_t kNtPages = 64;

class VamTest : public ::testing::Test {
 protected:
  VamTest() : vam_(kTotal, kNtPages) {
    vam_.free().SetRange(0, kTotal, true);
  }
  Vam vam_;
};

TEST_F(VamTest, MarkUsedAndFree) {
  vam_.MarkUsed(fs::Extent{.start = 100, .count = 50});
  EXPECT_EQ(vam_.FreeCount(), kTotal - 50);
  EXPECT_FALSE(vam_.IsFree(120));
  vam_.MarkFree(fs::Extent{.start = 100, .count = 50});
  EXPECT_EQ(vam_.FreeCount(), kTotal);
}

TEST_F(VamTest, ShadowDoesNotFreeUntilCommit) {
  vam_.MarkUsed(fs::Extent{.start = 0, .count = 100});
  vam_.MarkFreeShadow(fs::Extent{.start = 0, .count = 60});
  vam_.MarkFreeShadow(fs::Extent{.start = 60, .count = 40});
  EXPECT_EQ(vam_.FreeCount(), kTotal - 100);
  EXPECT_EQ(vam_.ShadowCount(), 100u);
  // A capture takes the shadow; a failed append merges it back.
  std::vector<fs::Extent> taken = vam_.TakeShadow();
  EXPECT_EQ(vam_.ShadowCount(), 0u);
  EXPECT_EQ(vam_.FreeCount(), kTotal - 100);
  vam_.MarkUsed(fs::Extent{.start = 200, .count = 5});
  vam_.MarkFreeShadow(fs::Extent{.start = 200, .count = 5});
  vam_.MergeShadow(taken);
  EXPECT_EQ(vam_.ShadowCount(), 105u);
  EXPECT_EQ(vam_.FreeCount(), kTotal - 105);
  // The durable force folds it into the free map.
  vam_.FoldShadow(vam_.TakeShadow());
  EXPECT_EQ(vam_.FreeCount(), kTotal);
  EXPECT_EQ(vam_.ShadowCount(), 0u);
}

TEST_F(VamTest, SaveLoadRoundTrip) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  vam_.MarkUsed(fs::Extent{.start = 123, .count = 45});
  vam_.nt_free().SetRange(0, kNtPages, true);
  vam_.nt_free().Set(3, false);

  const std::uint32_t sectors = 1 + (kTotal + 4095) / 4096 + 1;
  ASSERT_TRUE(vam_.Save(&disk, 10, sectors, /*boot_count=*/7).ok());

  Vam loaded(kTotal, kNtPages);
  ASSERT_TRUE(loaded.Load(&disk, 10, sectors, /*expected_boot=*/7).ok());
  EXPECT_EQ(loaded.FreeCount(), vam_.FreeCount());
  EXPECT_FALSE(loaded.IsFree(130));
  EXPECT_FALSE(loaded.nt_free().Get(3));
  EXPECT_TRUE(loaded.nt_free().Get(4));
}

TEST_F(VamTest, StaleStampRejected) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const std::uint32_t sectors = 1 + (kTotal + 4095) / 4096 + 1;
  ASSERT_TRUE(vam_.Save(&disk, 10, sectors, 7).ok());
  Vam loaded(kTotal, kNtPages);
  EXPECT_EQ(loaded.Load(&disk, 10, sectors, 8).code(),
            ErrorCode::kFailedPrecondition);
}

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest()
      : vam_(kTotal, kNtPages),
        allocator_(&vam_, /*data_low=*/1000, /*data_high=*/9000,
                   /*big_threshold=*/64) {
    vam_.free().SetRange(1000, 8000, true);
  }
  Vam vam_;
  RunAllocator allocator_;
};

TEST_F(AllocatorTest, SmallAllocatesLow) {
  auto runs = allocator_.Allocate(10);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start, 1000u);
  EXPECT_EQ((*runs)[0].count, 10u);
}

TEST_F(AllocatorTest, BigAllocatesHigh) {
  auto runs = allocator_.Allocate(100);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start + (*runs)[0].count, 9000u);
}

TEST_F(AllocatorTest, MarksVamUsed) {
  const std::uint32_t before = vam_.FreeCount();
  auto runs = allocator_.Allocate(25);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(vam_.FreeCount(), before - 25);
}

TEST_F(AllocatorTest, FirstExtentKeepsLeaderWithPageZero) {
  // Fragment the low area into 1-sector holes.
  for (std::uint32_t lba = 1000; lba < 2000; lba += 2) {
    vam_.MarkUsed(fs::Extent{.start = lba, .count = 1});
  }
  auto runs = allocator_.Allocate(5);
  ASSERT_TRUE(runs.ok());
  // The first extent must hold at least leader + page 0 together.
  EXPECT_GE((*runs)[0].count, 2u);
}

TEST_F(AllocatorTest, SplitsAcrossHolesWhenNeeded) {
  // Only scattered 8-sector holes remain.
  vam_.free().SetRange(1000, 8000, false);
  for (std::uint32_t lba = 1000; lba < 1200; lba += 16) {
    vam_.MarkFree(fs::Extent{.start = lba, .count = 8});
  }
  auto runs = allocator_.Allocate(30);
  ASSERT_TRUE(runs.ok());
  EXPECT_GT(runs->size(), 1u);
  std::uint32_t total = 0;
  for (const auto& run : *runs) {
    total += run.count;
  }
  EXPECT_EQ(total, 30u);
}

TEST_F(AllocatorTest, TooFragmentedFailsAndRollsBack) {
  vam_.free().SetRange(1000, 8000, false);
  // 20 one-sector holes: a 2+ sector allocation can't even start (the
  // first extent needs 2 contiguous), and kMaxRuns bounds the rest.
  for (std::uint32_t i = 0; i < 20; ++i) {
    vam_.MarkFree(fs::Extent{.start = 1000 + i * 3, .count = 1});
  }
  const std::uint32_t before = vam_.FreeCount();
  auto runs = allocator_.Allocate(40);
  EXPECT_FALSE(runs.ok());
  EXPECT_EQ(vam_.FreeCount(), before);  // everything rolled back
}

TEST_F(AllocatorTest, VolumeFullFails) {
  vam_.free().SetRange(1000, 8000, false);
  auto runs = allocator_.Allocate(1);
  EXPECT_EQ(runs.status().code(), ErrorCode::kNoFreeSpace);
}

TEST_F(AllocatorTest, BigSpillsIntoSmallAreaAsLastResort) {
  // Fill the top so the big area is gone; big allocations must still
  // succeed from below (areas are hints, not invariants).
  vam_.free().SetRange(5000, 4000, false);
  auto runs = allocator_.Allocate(100);
  ASSERT_TRUE(runs.ok());
  EXPECT_LT((*runs)[0].start, 5000u);
}

TEST_F(AllocatorTest, ReleaseReturnsSectors) {
  auto runs = allocator_.Allocate(50);
  ASSERT_TRUE(runs.ok());
  const std::uint32_t after_alloc = vam_.FreeCount();
  allocator_.Release(*runs);
  EXPECT_EQ(vam_.FreeCount(), after_alloc + 50);
}

TEST_F(AllocatorTest, ChurnNeverDoubleAllocates) {
  Rng rng(44);
  std::vector<std::vector<fs::Extent>> held;
  Bitmap owned(kTotal, false);
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.Chance(0.6)) {
      auto runs = allocator_.Allocate(
          static_cast<std::uint32_t>(rng.Between(1, 120)));
      if (!runs.ok()) {
        ASSERT_FALSE(held.empty());
        allocator_.Release(held.back());
        for (const auto& run : held.back()) {
          owned.SetRange(run.start, run.count, false);
        }
        held.pop_back();
        continue;
      }
      for (const auto& run : *runs) {
        for (std::uint32_t i = 0; i < run.count; ++i) {
          ASSERT_FALSE(owned.Get(run.start + i)) << "double allocation";
          owned.Set(run.start + i, true);
        }
      }
      held.push_back(*runs);
    } else {
      const std::size_t victim = rng.Below(held.size());
      allocator_.Release(held[victim]);
      for (const auto& run : held[victim]) {
        owned.SetRange(run.start, run.count, false);
      }
      held.erase(held.begin() + victim);
    }
  }
}

}  // namespace
}  // namespace cedar::core
