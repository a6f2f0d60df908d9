#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"
#include "src/workload/recorder.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"
#include "src/workload/zipf.h"

namespace cedar::workload {
namespace {

TEST(SizeDistributionTest, MatchesPaperShape) {
  // Paper section 5.6: 50% of files < 4000 bytes holding ~8% of the bytes.
  SizeDistribution sizes;
  Rng rng(17);
  std::uint64_t small_count = 0;
  std::uint64_t small_bytes = 0;
  std::uint64_t total_bytes = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t size = sizes.Sample(rng);
    ASSERT_GE(size, 128u);
    ASSERT_LE(size, 512u * 1024);
    total_bytes += size;
    if (size < 4000) {
      ++small_count;
      small_bytes += size;
    }
  }
  const double small_fraction =
      static_cast<double>(small_count) / kSamples;
  const double small_byte_fraction =
      static_cast<double>(small_bytes) / static_cast<double>(total_bytes);
  EXPECT_NEAR(small_fraction, 0.5, 0.03);
  EXPECT_NEAR(small_byte_fraction, 0.08, 0.03);
}

class WorkloadFsTest : public ::testing::Test {
 protected:
  WorkloadFsTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, Config()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }
  static core::FsdConfig Config() {
    core::FsdConfig config;
    config.log_sectors = 400;
    config.nt_pages = 256;
    return config;
  }
  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  core::Fsd fsd_;
};

TEST_F(WorkloadFsTest, PopulateCreatesRequestedFiles) {
  Rng rng(9);
  SizeDistribution sizes(8000.0);
  auto total = PopulateVolume(&fsd_, "pop/", 30, sizes, rng);
  ASSERT_TRUE(total.ok());
  EXPECT_GT(*total, 0u);
  auto list = fsd_.List("pop/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 30u);
}

TEST_F(WorkloadFsTest, MakeDoSetupAndBuild) {
  Rng rng(11);
  MakeDoConfig config;
  config.modules = 10;
  config.stale_fraction = 0.5;
  config.source_bytes = 2000;
  config.object_bytes = 3000;
  ASSERT_TRUE(MakeDoSetup(&fsd_, "mk/", config, rng).ok());
  auto list = fsd_.List("mk/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 20u);  // source + object per module

  Rng build_rng(12);
  auto result = MakeDoBuild(&fsd_, "mk/", config, build_rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->modules_scanned, 10u);
  EXPECT_GT(result->modules_rebuilt, 0u);
  EXPECT_LE(result->modules_rebuilt, 10u);
  // Rebuilt objects exist as fresh versions.
  auto after = fsd_.List("mk/");
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->size(), 20u);
}

TEST_F(WorkloadFsTest, BulkUpdateDrivesCommits) {
  Rng rng(13);
  BulkUpdateConfig config;
  config.files = 10;
  config.rounds = 3;
  config.touches_per_round = 10;
  config.rewrites_per_round = 2;
  config.think_time = 100 * sim::kMillisecond;
  ASSERT_TRUE(BulkUpdate(&fsd_, "bulk/", config, rng,
                         [&](sim::Micros think) {
                           clock_.Advance(think);
                           return fsd_.Tick();
                         })
                  .ok());
  // The half-second timer fired repeatedly across the bursts.
  const obs::Counter* forces = fsd_.Metrics().FindCounter("fsd.forces");
  ASSERT_NE(forces, nullptr);
  EXPECT_GT(forces->value(), 3u);
  // Rewrites made new versions; the set of distinct names is unchanged.
  auto list = fsd_.List("bulk/");
  ASSERT_TRUE(list.ok());
  std::set<std::string> names;
  for (const auto& info : *list) {
    names.insert(info.name);
  }
  EXPECT_EQ(names.size(), 10u);
}

// ---- The trace-driven workload engine: record, expand, replay. ----

TEST(ZipfSamplerTest, SampleFrequenciesMatchThePmf) {
  ZipfSampler zipf(20, 1.0);
  double pmf_sum = 0;
  for (std::uint32_t r = 0; r < zipf.n(); ++r) {
    pmf_sum += zipf.Pmf(r);
  }
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);

  Rng rng(3);
  constexpr int kSamples = 40000;
  std::vector<int> counts(zipf.n(), 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint32_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, zipf.n());
    ++counts[rank];
  }
  for (std::uint32_t r = 0; r < zipf.n(); ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kSamples, zipf.Pmf(r),
                0.01)
        << "rank " << r;
  }
  // The defining skew: rank 0 dominates, and s = 0 degenerates to uniform.
  EXPECT_GT(counts[0], 3 * counts[9]);
  ZipfSampler uniform(10, 0.0);
  EXPECT_NEAR(uniform.Pmf(0), 0.1, 1e-9);
  EXPECT_NEAR(uniform.Pmf(9), 0.1, 1e-9);
}

namespace engine {

core::FsdConfig SmallConfig() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  return config;
}

// Records a small three-tenant workload against a live FSD through the
// RecordingFs decorator. Pure Rng drives the op mix, so the captured trace
// is a deterministic function of the seed.
std::vector<TraceEntry> RecordSmallWorkload(std::uint64_t seed) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallConfig());
  CEDAR_CHECK_OK(fsd.Format());
  RecordingFs rec(&fsd, &clock);
  Rng rng(seed);
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 90; ++i) {
    ScopedTenant scope(static_cast<std::uint16_t>(i % 3));
    const std::string name =
        TenantPrefix(static_cast<std::uint16_t>(i % 3)) + "f" +
        std::to_string(rng.Below(9));
    switch (rng.Below(4)) {
      case 0:
        payload.assign(rng.Between(100, 900),
                       static_cast<std::uint8_t>(rng.Next()));
        CEDAR_CHECK_OK(rec.CreateFile(name, payload).status());
        break;
      case 1: {
        auto handle = rec.Open(name);
        if (handle.ok() && handle.value().byte_size > 0) {
          payload.resize(handle.value().byte_size);
          CEDAR_CHECK_OK(rec.Read(handle.value(), 0, payload));
          CEDAR_CHECK_OK(rec.Close(handle.value()));
        }
        break;
      }
      case 2:
        (void)rec.Touch(name);
        break;
      default:
        if (rng.Chance(0.2)) {
          (void)rec.DeleteFile(name);
        } else {
          (void)rec.Touch(name);
        }
        break;
    }
    clock.Advance(rng.Between(1, 12) * sim::kMillisecond);
    CEDAR_CHECK_OK(fsd.Tick());
  }
  CEDAR_CHECK_OK(rec.Force());
  std::vector<TraceEntry> trace = rec.Trace();
  CEDAR_CHECK_OK(fsd.Shutdown());
  return trace;
}

struct Footprint {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t violations = 0;

  bool operator==(const Footprint&) const = default;
};

Footprint ReplayFootprint(const std::vector<TraceEntry>& trace,
                          const ReplayConfig& config) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallConfig());
  CEDAR_CHECK_OK(fsd.Format());
  disk.ResetStats();
  auto result = ReplayTraceMulti(&fsd, trace, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  CEDAR_CHECK_OK(result.status());
  Footprint footprint;
  footprint.ops = result.value().totals.ops;
  footprint.reads = disk.stats().reads;
  footprint.writes = disk.stats().writes;
  footprint.sectors_written = disk.stats().sectors_written;
  footprint.busy_us = disk.stats().busy_us;
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  for (const auto& issue : report.value().issues) {
    footprint.violations +=
        issue.severity == core::FsckIssue::Severity::kViolation ? 1 : 0;
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
  return footprint;
}

}  // namespace engine

TEST(RecordReplayTest, RecordingIsDeterministic) {
  const std::vector<TraceEntry> once = engine::RecordSmallWorkload(5);
  const std::vector<TraceEntry> twice = engine::RecordSmallWorkload(5);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, twice);  // includes tenants and vtime stamps
}

TEST(RecordReplayTest, BinaryRoundTripPreservesTheTrace) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload(5);
  const std::vector<std::uint8_t> bytes = SerializeTraceBinary(trace);
  auto parsed = ParseTraceBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), trace);
}

TEST(RecordReplayTest, TurnstileFootprintIdenticalAt148Threads) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload(5);
  ReplayConfig config;
  config.threads = 1;
  const engine::Footprint one = engine::ReplayFootprint(trace, config);
  config.threads = 4;
  const engine::Footprint four = engine::ReplayFootprint(trace, config);
  config.threads = 8;
  const engine::Footprint eight = engine::ReplayFootprint(trace, config);
  EXPECT_GT(one.ops, 0u);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.violations, 0u);
}

TEST(RecordReplayTest, OpenLoopPacingAdvancesTheClock) {
  const std::vector<TraceEntry> trace = engine::RecordSmallWorkload(5);
  ASSERT_GT(trace.back().vtime_us, trace.front().vtime_us);
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, engine::SmallConfig());
  CEDAR_CHECK_OK(fsd.Format());
  ReplayConfig config;
  config.paced = true;
  auto result = ReplayTraceMulti(&fsd, trace, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  ASSERT_TRUE(result.ok());
  // The driver owes the clock at least the recorded span as think time.
  EXPECT_GE(clock.now(), trace.back().vtime_us - trace.front().vtime_us);
  CEDAR_CHECK_OK(fsd.Shutdown());
}

TEST(ExpandTraceTest, ScaleAndZipfAreDeterministic) {
  TraceGenConfig gen;
  gen.operations = 60;
  gen.name_space = 12;
  Rng rng(21);
  const std::vector<TraceEntry> base = GenerateTrace(gen, rng);
  ReplayConfig config;
  config.scale = 2.0;
  config.zipf_s = 1.2;
  config.seed = 9;
  const std::vector<TraceEntry> plan_a = ExpandTrace(base, config);
  const std::vector<TraceEntry> plan_b = ExpandTrace(base, config);
  EXPECT_EQ(plan_a, plan_b);
  EXPECT_NEAR(static_cast<double>(plan_a.size()),
              2.0 * static_cast<double>(base.size()), 1.0);
  // Zipf remap only renames; the op kinds line up with the repeated base.
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].op, base[i % base.size()].op);
  }
}

TEST(ReplayTenantTest, NamespacesStayIsolatedUnderConcurrentReplay) {
  TraceGenConfig gen;
  gen.operations = 150;
  gen.name_space = 18;
  Rng rng(7);
  const std::vector<TraceEntry> base = GenerateTrace(gen, rng);

  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, engine::SmallConfig());
  CEDAR_CHECK_OK(fsd.Format());
  ReplayConfig config;
  config.threads = 8;
  config.mode = ReplayMode::kFreeRun;
  config.tenants = 4;
  auto result = ReplayTraceMulti(&fsd, base, config,
                                 [&](sim::Micros think) {
                                   clock.Advance(think);
                                   return fsd.Tick();
                                 });
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().per_tenant.size(), 4u);

  // Every surviving file lives under exactly one tenant prefix, and each
  // tenant actually did work.
  auto all = fsd.List("");
  ASSERT_TRUE(all.ok());
  std::uint64_t prefixed = 0;
  for (const auto& info : *all) {
    int owners = 0;
    for (std::uint16_t tenant = 0; tenant < 4; ++tenant) {
      owners += info.name.starts_with(TenantPrefix(tenant)) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1) << info.name;
    prefixed += owners;
  }
  EXPECT_EQ(prefixed, all->size());
  for (std::uint16_t tenant = 0; tenant < 4; ++tenant) {
    EXPECT_GT(result.value().per_tenant[tenant].ops, 0u) << tenant;
    auto mine = fsd.List(TenantPrefix(tenant));
    ASSERT_TRUE(mine.ok());
    for (const auto& info : *mine) {
      EXPECT_TRUE(info.name.starts_with(TenantPrefix(tenant))) << info.name;
    }
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
}

TEST(TraceBinaryTest, UnknownFieldsAreSkippedForwardCompat) {
  // Future writers may append fields; today's reader must skip them by
  // wire type. Hand-extend the single entry with an unknown u32 field
  // (id 9) and an unknown string field (id 10).
  TraceEntry entry;
  entry.op = TraceOp::kTouch;
  entry.name = "compat";
  entry.tenant = 2;
  entry.vtime_us = 77;
  std::vector<std::uint8_t> bytes = SerializeTraceBinary({&entry, 1});
  const std::size_t nfields_at = 8 + 4;  // magic + count
  ASSERT_EQ(bytes[nfields_at], 7u);
  bytes[nfields_at] = 9;
  bytes.push_back((9 << 3) | 2);  // field 9, wire u32
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(0xAB);
  }
  bytes.push_back((10 << 3) | 4);  // field 10, wire string
  bytes.push_back(3);              // u16 length, little-endian
  bytes.push_back(0);
  bytes.push_back('f');
  bytes.push_back('u');
  bytes.push_back('t');

  auto parsed = ParseTraceBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0], entry);

  // An unknown *wire type* cannot be skipped — that is a corrupt trace.
  std::vector<std::uint8_t> bad = SerializeTraceBinary({&entry, 1});
  bad[nfields_at] = 8;
  bad.push_back((11 << 3) | 7);
  EXPECT_FALSE(ParseTraceBinary(bad).ok());
}

}  // namespace
}  // namespace cedar::workload
