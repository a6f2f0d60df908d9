#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/sim/label.h"
#include "src/sim/timing.h"

namespace cedar::sim {
namespace {

DiskTimingParams FastParams() { return DiskTimingParams{}; }

std::vector<std::uint8_t> Pattern(std::size_t sectors, std::uint8_t seed) {
  std::vector<std::uint8_t> buf(sectors * kSectorSize);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(seed + i);
  }
  return buf;
}

class SimDiskTest : public ::testing::Test {
 protected:
  SimDiskTest() : disk_(TestGeometry(), FastParams(), &clock_) {}

  VirtualClock clock_;
  SimDisk disk_;
};

TEST(GeometryTest, LbaChsRoundTrip) {
  DiskGeometry g = TestGeometry();
  for (Lba lba : {Lba{0}, Lba{1}, Lba{27}, Lba{28}, Lba{223}, Lba{224},
                  g.TotalSectors() - 1}) {
    EXPECT_EQ(g.ToLba(g.ToChs(lba)), lba);
  }
}

TEST(GeometryTest, LbaMathSurvivesBeyondFourGigaSectors) {
  // 3 M cylinders x 64 heads x 32 spt = 6.144 G sectors — past 2^32, the
  // shape a wide striped DiskArray presents. Every derived quantity must be
  // computed in 64 bits; before the Lba promotion the products below
  // silently wrapped.
  DiskGeometry g{.cylinders = 3'000'000, .heads = 64,
                 .sectors_per_track = 32};
  EXPECT_EQ(g.TotalSectors(), 6'144'000'000ull);
  EXPECT_EQ(g.TotalBytes(), 6'144'000'000ull * 512);
  for (Lba lba : {Lba{1} << 32, (Lba{1} << 32) + 1, g.TotalSectors() - 1}) {
    EXPECT_EQ(g.ToLba(g.ToChs(lba)), lba);
  }
  EXPECT_EQ(g.CylinderStart(g.cylinders - 1), 6'144'000'000ull - 2048);
}

TEST(GeometryTest, ChsFieldsInRange) {
  DiskGeometry g = TestGeometry();
  for (Lba lba = 0; lba < g.TotalSectors(); lba += 97) {
    Chs chs = g.ToChs(lba);
    EXPECT_LT(chs.cylinder, g.cylinders);
    EXPECT_LT(chs.head, g.heads);
    EXPECT_LT(chs.sector, g.sectors_per_track);
  }
}

TEST(GeometryTest, DefaultIsAbout300MB) {
  DiskGeometry g;
  EXPECT_GT(g.TotalBytes(), 280ull * 1000 * 1000);
  EXPECT_LT(g.TotalBytes(), 320ull * 1000 * 1000);
}

TEST(TimingTest, SeekZeroIsFree) {
  DiskTimingModel timing(TestGeometry(), FastParams());
  EXPECT_EQ(timing.SeekTime(0), 0u);
}

TEST(TimingTest, SeekMonotoneInDistance) {
  DiskTimingModel timing(DiskGeometry{}, FastParams());
  Micros prev = 0;
  for (std::uint32_t d = 1; d < 1099; d += 50) {
    const Micros t = timing.SeekTime(d);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_EQ(timing.SeekTime(1), FastParams().min_seek_us);
  EXPECT_EQ(timing.SeekTime(1099), FastParams().max_seek_us);
}

TEST(TimingTest, SequentialSectorsStreamAtMediaRate) {
  DiskGeometry g = TestGeometry();
  DiskTimingParams p = FastParams();
  p.controller_us = 0;  // with per-request overhead the next sector is missed
  DiskTimingModel timing(g, p);
  // Position at sector 0 (cost absorbed), then read the rest of the track:
  // consecutive sectors must cost exactly one sector time each.
  ServiceTime first = timing.Access(0, 1, 0);
  Micros t = first.Total();
  ServiceTime rest = timing.Access(1, g.sectors_per_track - 1, t);
  EXPECT_EQ(rest.seek_us, 0u);
  EXPECT_EQ(rest.rotational_us, 0u);  // head is exactly at sector 1
  EXPECT_EQ(rest.transfer_us,
            (g.sectors_per_track - 1) * timing.sector_time_us());
}

TEST(TimingTest, ReadThenRewriteLosesARevolution) {
  DiskGeometry g = TestGeometry();
  DiskTimingParams p = FastParams();
  p.controller_us = 0;  // isolate the rotational effect
  DiskTimingModel timing(g, p);
  ServiceTime read = timing.Access(5, 1, 0);
  // Rewriting the same sector immediately: it just passed under the head,
  // so we wait almost a full revolution.
  ServiceTime rewrite = timing.Access(5, 1, read.Total());
  EXPECT_EQ(rewrite.rotational_us,
            timing.rotation_us() - timing.sector_time_us());
}

TEST(TimingTest, HeadSwitchWithinCylinderIsSeamless) {
  DiskGeometry g = TestGeometry();
  DiskTimingParams p = FastParams();
  p.controller_us = 0;
  DiskTimingModel timing(g, p);
  // Read across a track boundary within one cylinder: last sector of track 0
  // and first sector of track 1.
  ServiceTime cross = timing.Access(g.sectors_per_track - 1, 2, 0);
  EXPECT_EQ(cross.transfer_us, 2 * timing.sector_time_us());
}

TEST(TimingTest, CrossingCylinderCostsShortSeek) {
  DiskGeometry g = TestGeometry();
  DiskTimingParams p = FastParams();
  p.controller_us = 0;
  DiskTimingModel timing(g, p);
  const std::uint32_t spc = g.SectorsPerCylinder();
  ServiceTime cross = timing.Access(spc - 1, 2, 0);
  EXPECT_GT(cross.transfer_us, 2 * timing.sector_time_us());
  EXPECT_GE(cross.transfer_us, p.min_seek_us);
  EXPECT_EQ(timing.current_cylinder(), 1u);
}

TEST(TimingTest, PeakBandwidthMatchesSectorRate) {
  DiskTimingModel timing(TestGeometry(), FastParams());
  const double bw = timing.PeakBandwidthBytesPerSec();
  EXPECT_NEAR(bw, 512.0 * 1e6 / timing.sector_time_us(), 1.0);
}

TEST_F(SimDiskTest, WriteReadRoundTrip) {
  auto data = Pattern(3, 7);
  ASSERT_TRUE(disk_.Write(100, data).ok());
  std::vector<std::uint8_t> out(3 * kSectorSize);
  ASSERT_TRUE(disk_.Read(100, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SimDiskTest, IoCountsRequestsNotSectors) {
  auto data = Pattern(8, 1);
  ASSERT_TRUE(disk_.Write(0, data).ok());
  std::vector<std::uint8_t> out(8 * kSectorSize);
  ASSERT_TRUE(disk_.Read(0, out).ok());
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(disk_.stats().reads, 1u);
  EXPECT_EQ(disk_.stats().TotalIos(), 2u);
  EXPECT_EQ(disk_.stats().sectors_written, 8u);
  EXPECT_EQ(disk_.stats().sectors_read, 8u);
}

TEST_F(SimDiskTest, EveryRequestAdvancesTheClock) {
  const Micros t0 = clock_.now();
  auto data = Pattern(1, 0);
  ASSERT_TRUE(disk_.Write(50, data).ok());
  EXPECT_GT(clock_.now(), t0);
  EXPECT_EQ(clock_.now() - t0, disk_.stats().busy_us);
}

TEST_F(SimDiskTest, OutOfRangeRejected) {
  auto data = Pattern(2, 0);
  const Lba last = disk_.geometry().TotalSectors() - 1;
  EXPECT_EQ(disk_.Write(last, data).code(), ErrorCode::kOutOfRange);
}

TEST_F(SimDiskTest, DamagedSectorFailsRead) {
  auto data = Pattern(1, 3);
  ASSERT_TRUE(disk_.Write(10, data).ok());
  disk_.DamageSectors(10, 1);
  std::vector<std::uint8_t> out(kSectorSize);
  EXPECT_EQ(disk_.Read(10, out).code(), ErrorCode::kSectorDamaged);
}

TEST_F(SimDiskTest, BadMapCollectsDamageAndZeroFills) {
  ASSERT_TRUE(disk_.Write(10, Pattern(4, 3)).ok());
  disk_.DamageSectors(11, 2);
  std::vector<std::uint8_t> out(4 * kSectorSize);
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(10, out, &bad).ok());
  EXPECT_EQ(bad, (std::vector<std::uint32_t>{1, 2}));
  for (std::size_t i = kSectorSize; i < 3 * kSectorSize; ++i) {
    ASSERT_EQ(out[i], 0);
  }
  EXPECT_NE(out[0], 0);  // sector 0 of the request intact
}

TEST_F(SimDiskTest, RewriteRevivesDamagedSector) {
  disk_.DamageSectors(20, 1);
  ASSERT_TRUE(disk_.Write(20, Pattern(1, 9)).ok());
  std::vector<std::uint8_t> out(kSectorSize);
  EXPECT_TRUE(disk_.Read(20, out).ok());
}

TEST_F(SimDiskTest, LabelVerifyCatchesMismatch) {
  Label owned{.file_uid = 77, .page_number = 0, .type = PageType::kData};
  auto data = Pattern(1, 5);
  ASSERT_TRUE(disk_.WriteLabeled(30, data, {}, {{owned}}).ok());

  std::vector<std::uint8_t> out(kSectorSize);
  EXPECT_TRUE(disk_.ReadLabeled(30, out, {{owned}}).ok());

  Label wrong = owned;
  wrong.file_uid = 78;
  EXPECT_EQ(disk_.ReadLabeled(30, out, {{wrong}}).code(),
            ErrorCode::kLabelMismatch);
}

TEST_F(SimDiskTest, LabelCheckedWritePreventsWildWrite) {
  Label owned{.file_uid = 77, .page_number = 0, .type = PageType::kData};
  ASSERT_TRUE(disk_.WriteLabeled(30, Pattern(1, 5), {}, {{owned}}).ok());
  // A buggy writer believes the page is free; the microcode check refuses.
  Label expected_free{};
  Label claim{.file_uid = 99, .page_number = 0, .type = PageType::kData};
  EXPECT_EQ(
      disk_.WriteLabeled(30, Pattern(1, 6), {{expected_free}}, {{claim}})
          .code(),
      ErrorCode::kLabelMismatch);
  // The original data survived.
  std::vector<std::uint8_t> out(kSectorSize);
  ASSERT_TRUE(disk_.ReadLabeled(30, out, {{owned}}).ok());
  EXPECT_EQ(out, Pattern(1, 5));
}

TEST_F(SimDiskTest, LabelOnlyOpsCountAsIos) {
  std::vector<Label> labels(3);
  ASSERT_TRUE(disk_.ReadLabels(40, labels).ok());
  ASSERT_TRUE(disk_.WriteLabels(40, labels).ok());
  EXPECT_EQ(disk_.stats().label_ops, 2u);
}

TEST_F(SimDiskTest, WildWriteCorruptsDataKeepsLabel) {
  Label owned{.file_uid = 5, .page_number = 1, .type = PageType::kData};
  ASSERT_TRUE(disk_.WriteLabeled(60, Pattern(1, 1), {}, {{owned}}).ok());
  disk_.WildWrite(60, /*seed=*/42);
  EXPECT_EQ(disk_.PeekLabel(60), owned);
  std::vector<std::uint8_t> out(kSectorSize);
  ASSERT_TRUE(disk_.Read(60, out).ok());
  EXPECT_NE(out, Pattern(1, 1));
}

TEST_F(SimDiskTest, TornWriteCompletesPrefixAndDamagesCut) {
  // Baseline contents.
  ASSERT_TRUE(disk_.Write(100, Pattern(6, 0x10)).ok());
  // Crash during the next write after 2 sectors, damaging 2 at the cut.
  disk_.ArmCrash(CrashPlan{.at_write_index = 0,
                           .sectors_completed = 2,
                           .sectors_damaged = 2,
                           .drop_writes = {}});
  auto update = Pattern(6, 0x50);
  EXPECT_EQ(disk_.Write(100, update).code(), ErrorCode::kDeviceCrashed);
  EXPECT_TRUE(disk_.crashed());
  EXPECT_EQ(disk_.Read(100, update).code(), ErrorCode::kDeviceCrashed);

  disk_.Reopen();
  std::vector<std::uint8_t> out(6 * kSectorSize);
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(100, out, &bad).ok());
  // Prefix has the new data.
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2 * kSectorSize,
                         Pattern(6, 0x50).begin()));
  // Two damaged at the cut.
  EXPECT_EQ(bad, (std::vector<std::uint32_t>{2, 3}));
  // Tail untouched (old contents).
  EXPECT_TRUE(std::equal(out.begin() + 4 * kSectorSize, out.end(),
                         Pattern(6, 0x10).begin() + 4 * kSectorSize));
}

TEST_F(SimDiskTest, CrashAtLaterWriteIndex) {
  disk_.ArmCrash(CrashPlan{.at_write_index = 2,
                           .sectors_completed = 0,
                           .sectors_damaged = 0,
                           .drop_writes = {}});
  EXPECT_TRUE(disk_.Write(0, Pattern(1, 1)).ok());
  EXPECT_TRUE(disk_.Write(1, Pattern(1, 2)).ok());
  EXPECT_EQ(disk_.Write(2, Pattern(1, 3)).code(), ErrorCode::kDeviceCrashed);
}

TEST_F(SimDiskTest, DamageTrackKillsExactlyOneTrack) {
  const auto spt = disk_.geometry().sectors_per_track;
  ASSERT_TRUE(disk_.Write(0, Pattern(2 * spt, 1)).ok());
  disk_.DamageTrack(/*cylinder=*/0, /*head=*/0);
  for (sim::Lba lba = 0; lba < spt; ++lba) {
    EXPECT_TRUE(disk_.IsDamaged(lba)) << lba;
  }
  // The next track (same cylinder, next head) is untouched.
  std::vector<std::uint8_t> out(512);
  EXPECT_TRUE(disk_.Read(spt, out).ok());
  // A rewrite revives damaged sectors, as with sector-level damage.
  ASSERT_TRUE(disk_.Write(0, Pattern(1, 9)).ok());
  EXPECT_FALSE(disk_.IsDamaged(0));
}

TEST_F(SimDiskTest, ImageSaveLoadRoundTrip) {
  Label owned{.file_uid = 9, .page_number = 2, .type = PageType::kData};
  ASSERT_TRUE(disk_.WriteLabeled(77, Pattern(1, 0x3C), {}, {{owned}}).ok());
  disk_.DamageSectors(200, 2);
  const std::string path = "/tmp/cedar_sim_image_test.img";
  ASSERT_TRUE(disk_.SaveImage(path).ok());

  VirtualClock clock2;
  SimDisk loaded(TestGeometry(), DiskTimingParams{}, &clock2);
  ASSERT_TRUE(loaded.LoadImage(path).ok());
  std::vector<std::uint8_t> out(kSectorSize);
  ASSERT_TRUE(loaded.ReadLabeled(77, out, {{owned}}).ok());
  EXPECT_EQ(out, Pattern(1, 0x3C));
  EXPECT_TRUE(loaded.IsDamaged(200));
  EXPECT_TRUE(loaded.IsDamaged(201));
  EXPECT_FALSE(loaded.IsDamaged(202));
  std::remove(path.c_str());
}

TEST_F(SimDiskTest, ImageGeometryMismatchRejected) {
  const std::string path = "/tmp/cedar_sim_image_test2.img";
  ASSERT_TRUE(disk_.SaveImage(path).ok());
  VirtualClock clock2;
  SimDisk other(DiskGeometry{}, DiskTimingParams{}, &clock2);  // 300 MB
  EXPECT_EQ(other.LoadImage(path).code(), ErrorCode::kInvalidArgument);
  // Only the current format loads: a retired magic is not an image.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.write("CEDIMG02", 8);
  }
  EXPECT_EQ(disk_.LoadImage(path).code(), ErrorCode::kCorruptMetadata);
  std::remove(path.c_str());
}

TEST_F(SimDiskTest, StatsBreakdownSumsToBusy) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(disk_.Write(static_cast<Lba>(i * 331), Pattern(2, 1)).ok());
  }
  const DiskStats& s = disk_.stats();
  EXPECT_EQ(s.seek_us + s.rotational_us + s.transfer_us +
                10 * FastParams().controller_us,
            s.busy_us);
}

}  // namespace
}  // namespace cedar::sim
