// The continuous checkpoint (a step that follows every force) and the
// maintenance/config API around it.
//
// Contracts pinned here:
//   - FsdConfig::Validate() rejects inconsistent combinations
//     (unsatisfiable recovery windows, degenerate sizes), and Format/Mount
//     fail fast on them instead of misbehaving later.
//   - With the checkpoint step on, 8 mutator threads cannot grow the
//     crash-replay exposure without bound: the step advances the durable
//     checkpoint pointer, and once the last Force() returns the live log is
//     under the configured window.
//   - The step runs right after each force, before the next client can
//     observe the log: a single client sees the window bounded after every
//     Force(), with no waiting.
//   - The step keeps running across Shutdown/Mount cycles.
//   - ScopedQuiesce is re-entrant on one thread (RunQuiesced can nest, and
//     quiesced entry points like Scrub/Fsck work inside it), and the gate
//     reopens exactly once.
//   - The maintenance surface is driven through fs::FileSystem, not a
//     downcast, and reports kFailedPrecondition when unmounted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace cedar::core {
namespace {

constexpr int kThreads = 8;
constexpr std::uint32_t kWindowSectors = 140;

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

FsdConfig CkptConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  config.checkpoint.daemon = true;
  config.checkpoint.window_sectors = kWindowSectors;
  return config;
}

// ---------------------------------------------------------------------------
// Config validation: inconsistent combinations fail fast at Format/Mount.

TEST(CkptConfigTest, ValidateAcceptsTheDefaultsAndTheCkptConfig) {
  EXPECT_TRUE(FsdConfig{}.Validate().ok());
  EXPECT_TRUE(CkptConfig().Validate().ok());
}

TEST(CkptConfigTest, ValidateRejectsUnsatisfiableWindows) {
  // Below one clamped commit group: the live log can never drain that far.
  FsdConfig config = CkptConfig();
  config.checkpoint.window_sectors = 16;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
  // Beyond the record area: the window could never trigger.
  config.checkpoint.window_sectors = config.log_sectors;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(CkptConfigTest, ValidateRejectsDegenerateSizes) {
  FsdConfig config;
  config.commit.group_records = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);

  config = FsdConfig{};
  config.log_sectors = 100;  // below the one-maximal-record-per-third floor
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);

  config = FsdConfig{};
  config.cache_frames = 4;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(CkptConfigTest, FormatAndMountFailFastOnInvalidConfig) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config = CkptConfig();
  config.checkpoint.window_sectors = 16;  // below one commit group
  Fsd fsd(&disk, config);
  EXPECT_EQ(fsd.Format().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fsd.Mount().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The checkpoint step under concurrent mutators.

class CkptTest : public ::testing::Test {
 protected:
  CkptTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, CkptConfig()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Fsd fsd_;
};

TEST_F(CkptTest, DaemonBoundsRecoveryWindowUnderMutators) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::string name =
            "w" + std::to_string(t) + "/f" + std::to_string(i % 5);
        if (!fsd_.CreateFile(name, Bytes(600, static_cast<std::uint8_t>(i)))
                 .ok()) {
          failures.fetch_add(1);
        }
        if (i % 4 == 3 && !fsd_.Force().ok()) {
          failures.fetch_add(1);
        }
        if (i % 5 == 4 && !fsd_.DeleteFile(name).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fsd_.Force().ok());

  // The workload wrote far more log than the 400-sector volume holds, so
  // the checkpoint step must have durably advanced the pointer at least
  // once.
  const FsdStats stats = fsd_.stats();
  EXPECT_GT(stats.ckpt_advances, 0u) << "step never advanced the pointer";
  EXPECT_GT(stats.ckpt_batches, 0u);

  // The step ran under force_mu_ right after the last force, so the
  // window read (which takes force_mu_) already sees the drained log — a
  // crash now replays a bounded region.
  auto window = fsd_.RecoveryWindow();
  ASSERT_TRUE(window.ok()) << window.status();
  EXPECT_LE(*window, std::uint64_t{kWindowSectors} * 512)
      << "recovery window above the configured bound after the last force";

  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

TEST_F(CkptTest, WindowIsBoundedWhenForceReturns) {
  // One client, so nothing else writes the log between a Force() returning
  // and the window read: the bound holds after every single force, not
  // just eventually.
  const std::uint64_t bound = std::uint64_t{kWindowSectors} * 512;
  for (int i = 0; i < 320; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("s/f" + std::to_string(i % 11),
                                Bytes(500, static_cast<std::uint8_t>(i)))
                    .ok());
    ASSERT_TRUE(fsd_.Force().ok());
    auto window = fsd_.RecoveryWindow();
    ASSERT_TRUE(window.ok()) << window.status();
    ASSERT_LE(*window, bound) << "after force " << i;
  }
  EXPECT_GT(fsd_.stats().ckpt_advances, 0u);
}

TEST_F(CkptTest, DaemonStopsAndRestartsAcrossShutdownMount) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    // A clean Mount reformats the log, so each cycle must prove the step
    // runs again after the remount: churn until the advance counter moves
    // again.
    const std::uint64_t advances_before = fsd_.stats().ckpt_advances;
    for (int i = 0; i < 500 && fsd_.stats().ckpt_advances == advances_before;
         ++i) {
      ASSERT_TRUE(fsd_.CreateFile("c" + std::to_string(cycle) + "/f" +
                                      std::to_string(i % 9),
                                  Bytes(500, static_cast<std::uint8_t>(i)))
                      .ok());
      ASSERT_TRUE(fsd_.Force().ok());
    }
    EXPECT_GT(fsd_.stats().ckpt_advances, advances_before)
        << "no checkpoint advance after mount cycle " << cycle;
    ASSERT_TRUE(fsd_.Shutdown().ok());
    // Unmounted: the maintenance surface reports the precondition failure
    // instead of touching an unmounted log.
    EXPECT_EQ(fsd_.RecoveryWindow().status().code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(fsd_.Checkpoint().code(), ErrorCode::kFailedPrecondition);
    ASSERT_TRUE(fsd_.Mount().ok());
  }
  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

TEST_F(CkptTest, ScopedQuiesceIsReentrantOnOneThread) {
  ASSERT_TRUE(fsd_.CreateFile("q/file", Bytes(800, 5)).ok());
  // RunQuiesced nests: the inner scope must not re-close the gate or
  // re-lock force_mu_, and quiesced entry points (Scrub, Fsck take their
  // own ScopedQuiesce) must work inside an outer quiesced scope.
  Status nested = fsd_.RunQuiesced([&] {
    return fsd_.RunQuiesced([&] { return fsd_.Scrub().status(); });
  });
  EXPECT_TRUE(nested.ok()) << nested;
  // The gate reopened exactly once: ordinary mutators proceed.
  EXPECT_TRUE(fsd_.CreateFile("q/after", Bytes(300, 7)).ok());
  EXPECT_TRUE(fsd_.Force().ok());
  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

// ---------------------------------------------------------------------------
// The maintenance surface through the portable interface.

TEST_F(CkptTest, MaintenanceSurfaceWorksThroughTheInterface) {
  fs::FileSystem* fs = &fsd_;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        fs->CreateFile("m/f" + std::to_string(i),
                       Bytes(700, static_cast<std::uint8_t>(i)))
            .ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(fs->Force().ok());
    }
  }
  ASSERT_TRUE(fs->Force().ok());

  auto before = fs->RecoveryWindow();
  ASSERT_TRUE(before.ok());
  EXPECT_GT(*before, 0u) << "forced updates should leave live log";

  // A synchronous interface checkpoint drains everything but the newest
  // record: the exposure shrinks and the counters move.
  ASSERT_TRUE(fs->Checkpoint().ok());
  auto after = fs->RecoveryWindow();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(*after, *before);

  const fs::MaintenanceStats m = fs->Maintenance();
  EXPECT_EQ(m.log_live_bytes, *after);
  EXPECT_GT(m.log_capacity_bytes, 0u);
  EXPECT_EQ(m.recovery_window_bytes, std::uint64_t{kWindowSectors} * 512);
  EXPECT_GT(m.checkpoint_batches, 0u);
  EXPECT_GT(m.checkpoint_advances, 0u);
}

TEST(CkptFallbackTest, ThirdFlushFallbackCountsWithoutTheDaemon) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Format().ok());
  // Cold pages first: leaves in name regions the churn below never touches
  // keep their one logged image until the log wraps back over it.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fsd.CreateFile(std::string(1, static_cast<char>('a' + i)) +
                                   "a/cold",
                               Bytes(450, static_cast<std::uint8_t>(i)))
                    .ok());
  }
  ASSERT_TRUE(fsd.Force().ok());
  // Enough forced metadata churn to wrap the 396-sector record area: with
  // no checkpoint step, re-entering the third that still holds the cold
  // pages' images is a synchronous checkpoint that writes them home, and
  // the fallback counter says so.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fsd.CreateFile("t/f" + std::to_string(i % 7),
                               Bytes(400, static_cast<std::uint8_t>(i)))
                    .ok());
    ASSERT_TRUE(fsd.Force().ok());
  }
  EXPECT_GT(fsd.stats().third_flush_fallbacks, 0u);
  EXPECT_GT(fsd.stats().ckpt_pages, 0u);
  EXPECT_EQ(fsd.stats().ckpt_batches, 0u);
  ASSERT_TRUE(fsd.Shutdown().ok());
}

// Frames are tagged with the LSN of their own commit group. When a group
// skips to the next third, the skip marker takes the LSN just before it; a
// frame tagged with the marker's LSN would sit below a checkpoint whose
// target is the group itself, and go home one round early.
TEST(CkptFallbackTest, CheckpointToAGroupAfterASkipMarkerKeepsItLogged) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Format().ok());
  ASSERT_TRUE(fsd.CreateFile("hot", Bytes(300, 1)).ok());
  // Re-dirty the same pages every round and checkpoint everything but the
  // newest group, so the only logged pages are always that group's.
  for (int round = 0;; ++round) {
    ASSERT_LT(round, 100) << "the log never needed a skip marker";
    const std::uint64_t markers = fsd.log_stats().markers;
    ASSERT_TRUE(fsd.Touch("hot").ok());
    ASSERT_TRUE(fsd.Force().ok());
    if (fsd.log_stats().markers > markers) {
      break;  // this force's group follows a skip marker
    }
    ASSERT_TRUE(fsd.Checkpoint().ok());
  }
  // The maximal checkpoint target is now that group's first LSN: nothing
  // lies below it, so no page goes home.
  const std::uint64_t pages_before = fsd.stats().ckpt_pages;
  ASSERT_TRUE(fsd.Checkpoint().ok());
  EXPECT_EQ(fsd.stats().ckpt_pages, pages_before);
  ASSERT_TRUE(fsd.Shutdown().ok());
}

}  // namespace
}  // namespace cedar::core
