#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::core {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

FsdConfig SmallConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  return config;
}

class FsdTest : public ::testing::Test {
 protected:
  FsdTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, SmallConfig()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Fsd fsd_;
};

TEST_F(FsdTest, CreateReadRoundTrip) {
  auto contents = Bytes(1300, 5);
  ASSERT_TRUE(fsd_.CreateFile("Foo.mesa", contents).ok());
  auto handle = fsd_.Open("Foo.mesa");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, 1300u);
  std::vector<std::uint8_t> out(1300);
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(FsdTest, CreateIsOneSynchronousIo) {
  // The paper's headline: "A file create typically does one I/O
  // synchronously: the combination of the write of the leader and data
  // pages." (Typical = name table warm in cache.)
  ASSERT_TRUE(fsd_.CreateFile("warmup", Bytes(1, 0)).ok());
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.CreateFile("one-byte", Bytes(1, 0)).ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 1u);
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(disk_.stats().sectors_written, 2u);  // leader + data page
}

TEST_F(FsdTest, OpenAndListAndDeleteDoNoIoWhenWarm) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("dir/f" + std::to_string(i), Bytes(64, 1)).ok());
  }
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Open("dir/f7").ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);  // name table cached

  auto list = fsd_.List("dir/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 20u);
  EXPECT_EQ((*list)[0].byte_size, 64u);  // properties came with the names
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);

  ASSERT_TRUE(fsd_.DeleteFile("dir/f3").ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);  // shadow free + cached tree
}

TEST_F(FsdTest, TouchIsPureMetadataHotSpot) {
  ASSERT_TRUE(fsd_.CreateFile("cached-remote", Bytes(100, 2)).ok());
  disk_.ResetStats();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_.Touch("cached-remote").ok());
  }
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);
}

TEST_F(FsdTest, GroupCommitForcesEveryHalfSecond) {
  ASSERT_TRUE(fsd_.CreateFile("a", Bytes(10, 0)).ok());
  EXPECT_TRUE(fsd_.HasPendingUpdates());
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Tick().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
  const obs::Counter* forces = fsd_.Metrics().FindCounter("fsd.forces");
  ASSERT_NE(forces, nullptr);
  EXPECT_GE(forces->value(), 1u);
}

TEST_F(FsdTest, UpdatesWithinWindowShareOneLogWrite) {
  // Many updates inside one commit window produce one force with one set of
  // page images — the group-commit batching of section 5.4.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("batch/f" + std::to_string(i), Bytes(32, 1)).ok());
  }
  const std::uint64_t records_before = fsd_.log_stats().records;
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Tick().ok());
  EXPECT_EQ(fsd_.log_stats().records, records_before + 1);
}

TEST_F(FsdTest, ClientForceMakesUpdatesDurableImmediately) {
  ASSERT_TRUE(fsd_.CreateFile("must-persist", Bytes(10, 0)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
}

TEST_F(FsdTest, DeletedPagesStayShadowedUntilCommit) {
  ASSERT_TRUE(fsd_.CreateFile("victim", Bytes(4096, 1)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  const std::uint32_t free_before = fsd_.FreeSectors();
  ASSERT_TRUE(fsd_.DeleteFile("victim").ok());
  // Not yet allocatable: the delete is uncommitted.
  EXPECT_EQ(fsd_.FreeSectors(), free_before);
  EXPECT_EQ(fsd_.ShadowSectors(), 9u);  // leader + 8 data pages
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_EQ(fsd_.FreeSectors(), free_before + 9);
  EXPECT_EQ(fsd_.ShadowSectors(), 0u);
}

TEST_F(FsdTest, VersionsIncrementAndDeleteTakesHighest) {
  ASSERT_TRUE(fsd_.CreateFile("v", Bytes(10, 0)).ok());
  ASSERT_TRUE(fsd_.CreateFile("v", Bytes(20, 1)).ok());
  auto handle = fsd_.Open("v");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 2u);
  ASSERT_TRUE(fsd_.DeleteFile("v").ok());
  handle = fsd_.Open("v");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 1u);
}

TEST_F(FsdTest, ReadAtUnalignedOffsets) {
  auto contents = Bytes(3000, 9);
  ASSERT_TRUE(fsd_.CreateFile("u", contents).ok());
  auto handle = fsd_.Open("u");
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(fsd_.Read(*handle, 777, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), contents.begin() + 777));
}

TEST_F(FsdTest, WriteInPlaceAndReadBack) {
  ASSERT_TRUE(fsd_.CreateFile("w", Bytes(2048, 0)).ok());
  auto handle = fsd_.Open("w");
  auto patch = Bytes(300, 77);
  ASSERT_TRUE(fsd_.Write(*handle, 1000, patch).ok());
  std::vector<std::uint8_t> out(300);
  ASSERT_TRUE(fsd_.Read(*handle, 1000, out).ok());
  EXPECT_EQ(out, patch);
}

TEST_F(FsdTest, EmptyCreateThenWritePiggybacksLeader) {
  ASSERT_TRUE(fsd_.CreateFile("empty", {}).ok());
  auto handle = fsd_.Open("empty");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(fsd_.Extend(*handle, 1024).ok());
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Write(*handle, 0, Bytes(1024, 3)).ok());
  // One combined leader+data write.
  EXPECT_EQ(disk_.stats().writes, 1u);
  const obs::Counter* piggyback_leader_writes =
      fsd_.Metrics().FindCounter("fsd.piggyback_leader_writes");
  ASSERT_NE(piggyback_leader_writes, nullptr);
  EXPECT_EQ(piggyback_leader_writes->value(), 1u);
}

TEST_F(FsdTest, FirstReadVerifiesLeaderByPiggyback) {
  ASSERT_TRUE(fsd_.CreateFile("check", Bytes(1024, 4)).ok());
  // Force a fresh open state and cold leader.
  auto handle = fsd_.Open("check");
  disk_.ResetStats();
  std::vector<std::uint8_t> out(1024);
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  // One read covering leader + both data pages.
  EXPECT_EQ(disk_.stats().reads, 1u);
  EXPECT_EQ(disk_.stats().sectors_read, 3u);
  const obs::Counter* piggyback_leader_verifies =
      fsd_.Metrics().FindCounter("fsd.piggyback_leader_verifies");
  ASSERT_NE(piggyback_leader_verifies, nullptr);
  EXPECT_EQ(piggyback_leader_verifies->value(), 1u);
  // Second read: no verification needed.
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(disk_.stats().sectors_read, 2u);
}

TEST_F(FsdTest, LeaderCatchesWildWrite) {
  ASSERT_TRUE(fsd_.CreateFile("smashed", Bytes(512, 5)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  // Find the leader (first sector of the file's allocation) and smash it.
  auto info = fsd_.Stat("smashed");
  ASSERT_TRUE(info.ok());
  // Leader is one sector before the first data page; locate it via a fresh
  // mount-free trick: data_low is where small files start.
  disk_.WildWrite(fsd_.layout().data_low, 999);
  auto handle = fsd_.Open("smashed");
  ASSERT_TRUE(handle.ok());
  // The read detects the smashed leader, rebuilds it from the entry (the
  // entry is authoritative), and serves the data anyway — heal-and-serve.
  std::vector<std::uint8_t> out(512);
  EXPECT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), Bytes(512, 5).begin()));
  const auto health = fsd_.Health();
  EXPECT_GE(health.corruption_detected, 1u);
  EXPECT_GE(health.repairs, 1u);
  // A second open+read sees the repaired leader: no further detection.
  auto handle2 = fsd_.Open("smashed");
  ASSERT_TRUE(handle2.ok());
  EXPECT_TRUE(fsd_.Read(*handle2, 0, out).ok());
  EXPECT_EQ(fsd_.Health().corruption_detected, health.corruption_detected);
}

TEST_F(FsdTest, ExtendUpdatesEntryAndLeader) {
  ASSERT_TRUE(fsd_.CreateFile("grow", Bytes(512, 1)).ok());
  auto handle = fsd_.Open("grow");
  ASSERT_TRUE(fsd_.Extend(*handle, 2048).ok());
  auto info = fsd_.Stat("grow");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->byte_size, 2560u);
  // Re-open and read across the extension; leader verification must still
  // pass (the leader was refreshed with the new run table).
  auto handle2 = fsd_.Open("grow");
  std::vector<std::uint8_t> out(2560);
  EXPECT_TRUE(fsd_.Read(*handle2, 0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 512, Bytes(512, 1).begin()));
}

TEST_F(FsdTest, CleanShutdownAndRemountLoadsSavedVam) {
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("p/f" + std::to_string(i), Bytes(600, 2)).ok());
  }
  const std::uint32_t free_before = fsd_.FreeSectors();
  ASSERT_TRUE(fsd_.Shutdown().ok());

  Fsd again(&disk_, SmallConfig());
  disk_.ResetStats();
  ASSERT_TRUE(again.Mount().ok());
  // Clean mount is cheap: root read, log format, VAM load — no tree scan.
  EXPECT_LT(disk_.stats().TotalIos(), 10u);
  EXPECT_EQ(again.FreeSectors(), free_before);

  auto handle = again.Open("p/f3");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(600);
  ASSERT_TRUE(again.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(600, 2));
}

TEST_F(FsdTest, NameTablePageDamageRepairedFromReplica) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("r/f" + std::to_string(i), Bytes(100, 1)).ok());
  }
  ASSERT_TRUE(fsd_.Shutdown().ok());
  // Damage a primary name-table sector; the replica must silently repair.
  disk_.DamageSectors(fsd_.layout().nta_base, 2);

  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto list = again.List("r/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  const obs::Counter* nt_repairs =
      again.Metrics().FindCounter("fsd.nt_repairs");
  ASSERT_NE(nt_repairs, nullptr);
  EXPECT_GE(nt_repairs->value(), 1u);
}

TEST_F(FsdTest, NameTableReplicaDamageAlsoRepaired) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("r/f" + std::to_string(i), Bytes(100, 1)).ok());
  }
  ASSERT_TRUE(fsd_.Shutdown().ok());
  disk_.DamageSectors(fsd_.layout().ntb_base, 2);
  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto list = again.List("r/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  // The damaged replica sectors were rewritten; both copies readable now.
  std::vector<std::uint8_t> buf(512);
  EXPECT_TRUE(disk_.Read(fsd_.layout().ntb_base, buf).ok());
}

TEST_F(FsdTest, BigFilesAllocateHighSmallFilesLow) {
  ASSERT_TRUE(fsd_.CreateFile("small", Bytes(1024, 1)).ok());
  ASSERT_TRUE(
      fsd_.CreateFile("big", Bytes(100 * 512, 2)).ok());  // >= threshold
  // Verify placement via the free map: the small file sits near data_low,
  // the big one near data_high.
  auto small_handle = fsd_.Open("small");
  auto big_handle = fsd_.Open("big");
  ASSERT_TRUE(small_handle.ok());
  ASSERT_TRUE(big_handle.ok());
  std::vector<std::uint8_t> out(512);
  ASSERT_TRUE(fsd_.Read(*small_handle, 0, out).ok());
  ASSERT_TRUE(fsd_.Read(*big_handle, 0, out).ok());
  // Structural check through the layout: everything below the log is the
  // small region start, everything at the top belongs to the big file.
  EXPECT_FALSE(fsd_.FreeSectors() == 0);
}

TEST_F(FsdTest, LargeFileContentsSurvive) {
  auto contents = Bytes(300 * 512, 6);
  ASSERT_TRUE(fsd_.CreateFile("large", contents).ok());
  auto handle = fsd_.Open("large");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(FsdTest, NameTableFullFailsCleanly) {
  // Fill the name table until inserts are refused; every previously created
  // file must remain reachable (regression: a mid-split allocation failure
  // used to orphan a freshly written sibling leaf).
  std::vector<std::string> created;
  for (int i = 0; i < 100000; ++i) {
    const std::string name = "full/file-" + std::to_string(100000 + i);
    auto result = fsd_.CreateFile(name, Bytes(64, 1));
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), ErrorCode::kNoFreeSpace);
      break;
    }
    created.push_back(name);
  }
  ASSERT_GT(created.size(), 100u);
  ASSERT_LT(created.size(), 100000u) << "name table never filled";
  ASSERT_TRUE(fsd_.CheckNameTableInvariants().ok());
  for (const std::string& name : created) {
    EXPECT_TRUE(fsd_.Open(name).ok()) << name;
  }
  // Deleting makes room again.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_.DeleteFile(created[i]).ok());
  }
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_TRUE(fsd_.CreateFile("full/after", Bytes(64, 2)).ok());
}

TEST_F(FsdTest, NameTableInvariantsHoldUnderChurn) {
  Rng rng(777);
  for (int step = 0; step < 500; ++step) {
    const std::string name = "churn/f" + std::to_string(rng.Below(60));
    if (rng.Chance(0.6)) {
      ASSERT_TRUE(fsd_.CreateFile(name, Bytes(rng.Between(1, 2000),
                                              static_cast<std::uint8_t>(step)))
                      .ok());
    } else {
      Status s = fsd_.DeleteFile(name);
      ASSERT_TRUE(s.ok() || s.code() == ErrorCode::kNotFound);
    }
    clock_.Advance(50 * sim::kMillisecond);
  }
  ASSERT_TRUE(fsd_.CheckNameTableInvariants().ok());
}

TEST_F(FsdTest, StressWithOracleAcrossCommitWindows) {
  Rng rng(1234);
  std::map<std::string, std::vector<std::uint8_t>> oracle;
  for (int step = 0; step < 400; ++step) {
    const std::string name = "s/f" + std::to_string(rng.Below(30));
    const std::uint64_t op = rng.Below(10);
    if (op < 5) {
      auto contents =
          Bytes(rng.Between(1, 4000), static_cast<std::uint8_t>(step));
      ASSERT_TRUE(fsd_.CreateFile(name, contents).ok());
      oracle[name] = contents;
    } else if (op < 7) {
      Status s = fsd_.DeleteFile(name);
      if (oracle.count(name)) {
        ASSERT_TRUE(s.ok());
        auto reopened = fsd_.Open(name);
        if (reopened.ok()) {
          std::vector<std::uint8_t> out(reopened->byte_size);
          ASSERT_TRUE(fsd_.Read(*reopened, 0, out).ok());
          oracle[name] = out;
        } else {
          oracle.erase(name);
        }
      } else {
        EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      }
    } else {
      auto handle = fsd_.Open(name);
      auto it = oracle.find(name);
      ASSERT_EQ(handle.ok(), it != oracle.end()) << name;
      if (handle.ok()) {
        std::vector<std::uint8_t> out(handle->byte_size);
        ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
        EXPECT_EQ(out, it->second);
      }
    }
    clock_.Advance(rng.Between(10, 200) * sim::kMillisecond);
  }
  // Everything must also survive an orderly shutdown + remount.
  ASSERT_TRUE(fsd_.Shutdown().ok());
  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  for (const auto& [name, contents] : oracle) {
    auto handle = again.Open(name);
    ASSERT_TRUE(handle.ok()) << name;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(again.Read(*handle, 0, out).ok());
    EXPECT_EQ(out, contents) << name;
  }
}

}  // namespace
}  // namespace cedar::core
