// Sections 5.5 / 5.9 and Table 2's recovery row: crash-recovery times.
//
//   Paper:
//     FSD log replay:        "rarely takes more than two seconds"
//     FSD VAM reconstruction: ~20 s (300 MB volume, Dorado)
//     FSD worst case:         ~25 s
//     CFS scavenge:           an hour or more (3600+ s)
//     4.3 BSD fsck (VAX):     ~7 minutes (~420 s)
//
// The sweep shows how FSD recovery scales with volume population (the
// name-table scan is the variable part) while CFS scavenging scales with
// raw volume capacity — the paper's point that scavenge-style recovery is
// untenable "as disk capacity continues to grow".

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/bsd/ffs.h"
#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/trace.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

double FsdRecoverySeconds(std::uint32_t files, double* replay_s,
                          double* rebuild_s, bool vam_logging = false) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.durability.vam_logging = vam_logging;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  cedar::Rng rng(5);
  cedar::workload::SizeDistribution sizes;
  CEDAR_CHECK_OK(
      cedar::workload::PopulateVolume(&fsd, "v/", files, sizes, rng)
          .status());
  // Leave uncommitted work in flight, then crash.
  for (int i = 0; i < 20; ++i) {
    CEDAR_CHECK_OK(fsd.Touch("v/f" + std::to_string(i) + ".db"));
  }
  rig.disk.CrashNow();
  rig.disk.Reopen();

  // Measure the two recovery phases separately by timing a Mount and
  // attributing the log-replay share via the I/O stats.
  cedar::core::Fsd recovered(&rig.disk, config);
  const double total =
      TimedMs(rig.clock, [&] { CEDAR_CHECK_OK(recovered.Mount()); }) / 1000.0;
  // Replay share estimate: pages replayed x (write + short seek).
  *replay_s = static_cast<double>(CounterValue(
                  recovered.Metrics(), "fsd.recovery_pages_replayed")) *
              15.0 / 1000.0;
  *rebuild_s = total - *replay_s;
  return total;
}

// ---- --ckpt mode: recovery window vs log fill, thirds vs continuous. ----
//
// The continuous checkpoint's contract (checkpoint.daemon: a step that
// follows every force) is that mount-time replay covers at
// most `checkpoint.window_sectors` of log, no matter how much work ran
// before the crash. Without it, the replay window grows with log fill until
// third reclamation trims it — up to two thirds of the record area. This
// sweep churns metadata (touch + force) to fill levels well past a log wrap
// and crashes at each level, with the step off and on, so the
// bounded-vs-linear contrast is measured rather than asserted.

constexpr std::uint32_t kCkptWindowSectors = 200;
constexpr std::uint32_t kCkptFiles = 120;

struct CkptPoint {
  int touches = 0;
  bool daemon = false;
  std::uint64_t pre_crash_window_bytes = 0;  // RecoveryWindow() at crash
  std::uint64_t replay_pages = 0;            // pages replayed by Mount
  double mount_ms = 0;                       // virtual Mount() time
};

cedar::core::FsdConfig CkptConfig(bool daemon) {
  cedar::core::FsdConfig config;
  // Single-record groups keep the window floor (one clamped commit group)
  // small, so a tight 200-sector window is a legal configuration.
  config.commit.group_records = 1;
  config.checkpoint.daemon = daemon;
  config.checkpoint.window_sectors = kCkptWindowSectors;
  // VAM logging removes the ~20 s rebuild constant from every mount, so the
  // mount-time column isolates the log-replay share this sweep is about.
  config.durability.vam_logging = true;
  return config;
}

CkptPoint RunCkptFill(int touches, bool daemon) {
  Rig rig;
  const cedar::core::FsdConfig config = CkptConfig(daemon);
  cedar::core::Fsd fsd(&rig.disk, config);
  cedar::fs::FileSystem& fs = fsd;  // maintenance API via the interface
  CEDAR_CHECK_OK(fsd.Format());
  cedar::Rng rng(7);
  cedar::workload::SizeDistribution sizes;
  CEDAR_CHECK_OK(
      cedar::workload::PopulateVolume(&fsd, "v/", kCkptFiles, sizes, rng)
          .status());
  for (int i = 0; i < touches; ++i) {
    CEDAR_CHECK_OK(
        fsd.Touch("v/f" + std::to_string(i % kCkptFiles) + ".db"));
    CEDAR_CHECK_OK(fs.Force());
  }
  // With the step on, it ran right after the last force, before that
  // Force() returned, so this read sees the drained window: no waiting, and
  // the same value on every run.
  CkptPoint point;
  point.touches = touches;
  point.daemon = daemon;
  auto window = fs.RecoveryWindow();
  CEDAR_CHECK_OK(window.status());
  point.pre_crash_window_bytes = window.value();
  rig.disk.CrashNow();
  rig.disk.Reopen();
  // Recover with the step off so the measured virtual time is exactly the
  // mount (replay + rebuild).
  cedar::core::FsdConfig recover_config = config;
  recover_config.checkpoint.daemon = false;
  cedar::core::Fsd recovered(&rig.disk, recover_config);
  point.mount_ms =
      TimedMs(rig.clock, [&] { CEDAR_CHECK_OK(recovered.Mount()); });
  point.replay_pages =
      CounterValue(recovered.Metrics(), "fsd.recovery_pages_replayed");
  CEDAR_CHECK_OK(recovered.Shutdown());
  return point;
}

// ---- --ckpt mode, big-tree row: a crash mount whose tree outgrows the
// page cache. Without VAM logging the mount rebuilds the VAM by walking
// every tree page (section 5.5). The walk reads the pages the preload sweep
// already elected, so Mount reads each name-table sector exactly once, in
// the sweep, whatever the cache size; re-reading the pages the cache
// evicted would show up here as name-table sectors beyond 2 x nt_pages.

constexpr std::uint32_t kBigTreeFiles = 1000;
constexpr std::size_t kBigTreeCacheFrames = 64;

struct BigTreePoint {
  double mount_ms = 0;               // virtual Mount() time
  std::uint64_t nt_sectors_read = 0;  // name-table sectors Mount read
  std::uint64_t sweep_sectors = 0;    // the sweep's share: 2 x nt_pages
  std::uint64_t tree_pages = 0;       // pages in the tree after mount
};

BigTreePoint RunBigTree() {
  Rig rig;
  cedar::core::FsdConfig config;
  config.cache_frames = kBigTreeCacheFrames;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  cedar::Rng rng(11);
  cedar::workload::SizeDistribution sizes;
  CEDAR_CHECK_OK(cedar::workload::PopulateVolume(&fsd, "v/", kBigTreeFiles,
                                                 sizes, rng)
                     .status());
  rig.disk.CrashNow();
  rig.disk.Reopen();

  cedar::core::Fsd recovered(&rig.disk, config);
  cedar::obs::DiskTracer tracer;
  rig.disk.set_tracer(&tracer);
  BigTreePoint point;
  point.mount_ms =
      TimedMs(rig.clock, [&] { CEDAR_CHECK_OK(recovered.Mount()); });
  rig.disk.set_tracer(nullptr);
  const cedar::core::FsdLayout& layout = recovered.layout();
  for (const cedar::obs::TraceEvent& event : tracer.Events()) {
    if (event.kind != cedar::obs::DiskOpKind::kRead) {
      continue;
    }
    for (const std::uint64_t base : {std::uint64_t{layout.nta_base},
                                     std::uint64_t{layout.ntb_base}}) {
      const std::uint64_t lo = std::max(event.lba, base);
      const std::uint64_t hi =
          std::min(event.lba + event.sectors, base + config.nt_pages);
      point.nt_sectors_read += hi > lo ? hi - lo : 0;
    }
  }
  point.sweep_sectors = 2ull * config.nt_pages;
  auto fsck = recovered.Fsck();
  CEDAR_CHECK_OK(fsck.status());
  CEDAR_CHECK(fsck->Clean());
  point.tree_pages = fsck->nt_pages_checked;
  CEDAR_CHECK_OK(recovered.Shutdown());
  return point;
}

// Mount time and replay volume gate; the pre-crash window is the checkpoint
// step's contract and is already hard-gated below, so it rides along as info.
// The big-tree row gates its mount time and the name-table sectors read
// (the re-read count itself reads 0 when healthy, which benchdiff cannot
// gate, so it is info here and hard-gated by CkptMain).
void WriteCkptJson(const char* path, bool smoke,
                   const std::vector<CkptPoint>& points,
                   const BigTreePoint& big) {
  BenchReport report("recovery");
  report.SetConfig("mode", "ckpt");
  report.SetConfig("smoke", smoke ? 1.0 : 0.0);
  report.SetConfig("window_sectors", kCkptWindowSectors);
  std::string fills;
  for (const CkptPoint& p : points) {
    fills += std::to_string(p.touches) + (p.daemon ? "d," : "t,");
  }
  report.SetConfig("fills", fills);
  report.SetConfig("big_tree_files", kBigTreeFiles);
  report.SetConfig("big_tree_cache_frames",
                   static_cast<double>(kBigTreeCacheFrames));
  char key[64];
  for (const CkptPoint& p : points) {
    const char* kind = p.daemon ? "daemon" : "thirds";
    std::snprintf(key, sizeof(key), "mount_ms_%d_%s", p.touches, kind);
    report.AddMetric(key, p.mount_ms, Direction::kLowerIsBetter, "vms");
    std::snprintf(key, sizeof(key), "replay_pages_%d_%s", p.touches, kind);
    report.AddMetric(key, static_cast<double>(p.replay_pages),
                     Direction::kLowerIsBetter, "pages");
    std::snprintf(key, sizeof(key), "window_bytes_%d_%s", p.touches, kind);
    report.AddInfo(key, static_cast<double>(p.pre_crash_window_bytes));
  }
  report.AddMetric("mount_ms_big_tree", big.mount_ms,
                   Direction::kLowerIsBetter, "vms");
  report.AddMetric("nt_sectors_read_big_tree",
                   static_cast<double>(big.nt_sectors_read),
                   Direction::kLowerIsBetter, "sectors");
  report.AddInfo("nt_sectors_reread_big_tree",
                 static_cast<double>(big.nt_sectors_read - big.sweep_sectors));
  report.AddInfo("tree_pages_big_tree", static_cast<double>(big.tree_pages));
  CEDAR_CHECK_OK(report.WriteFile(path));
}

// Runs the sweep and gates: returns the process exit code.
int CkptMain(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<int> fills = smoke ? std::vector<int>{60, 150}
                                       : std::vector<int>{100, 200, 400, 800};
  const char* json_path = StringFlag(argc, argv, "--json");

  std::printf("Mount recovery vs log fill (window = %u sectors)\n\n",
              kCkptWindowSectors);
  std::printf("%8s %10s %14s %12s %10s\n", "touches", "daemon", "window B",
              "replay pages", "mount ms");
  std::vector<CkptPoint> points;
  for (int touches : fills) {
    for (bool daemon : {false, true}) {
      points.push_back(RunCkptFill(touches, daemon));
      const CkptPoint& p = points.back();
      std::printf("%8d %10s %14llu %12llu %10.1f\n", p.touches,
                  p.daemon ? "on" : "off",
                  (unsigned long long)p.pre_crash_window_bytes,
                  (unsigned long long)p.replay_pages, p.mount_ms);
    }
  }
  const BigTreePoint big = RunBigTree();
  std::printf("\nCrash mount, tree larger than the cache (%u files, %zu "
              "frames):\n",
              kBigTreeFiles, kBigTreeCacheFrames);
  std::printf("%12s %16s %14s %10s\n", "tree pages", "NT sectors read",
              "sweep sectors", "mount ms");
  std::printf("%12llu %16llu %14llu %10.1f\n",
              (unsigned long long)big.tree_pages,
              (unsigned long long)big.nt_sectors_read,
              (unsigned long long)big.sweep_sectors, big.mount_ms);
  if (json_path != nullptr) {
    WriteCkptJson(json_path, smoke, points, big);
  }

  // Gates (CI runs this mode and fails on nonzero exit):
  //   1. with the step, the pre-crash recovery window never exceeds the
  //      configured bound — the step's contract;
  //   2. with the step, mount replays at most the window's worth of
  //      pages, regardless of fill;
  //   3. at the deepest fill, replay with the step is strictly below
  //      third-based replay — bounded vs linear;
  //   4. the big-tree mount really outgrows the cache, and reads the name
  //      table once: nothing beyond the sweep.
  const std::uint64_t bound_bytes = std::uint64_t{kCkptWindowSectors} * 512;
  bool ok = true;
  for (const CkptPoint& p : points) {
    if (p.daemon && p.pre_crash_window_bytes > bound_bytes) {
      std::printf("GATE: window %llu B exceeds bound %llu B at %d touches\n",
                  (unsigned long long)p.pre_crash_window_bytes,
                  (unsigned long long)bound_bytes, p.touches);
      ok = false;
    }
    if (p.daemon && p.replay_pages > kCkptWindowSectors) {
      std::printf("GATE: replayed %llu pages > %u-sector window\n",
                  (unsigned long long)p.replay_pages, kCkptWindowSectors);
      ok = false;
    }
  }
  const CkptPoint& deep_thirds = points[points.size() - 2];
  const CkptPoint& deep_daemon = points[points.size() - 1];
  if (deep_daemon.replay_pages >= deep_thirds.replay_pages) {
    std::printf("GATE: daemon replay (%llu pages) not below third-based "
                "replay (%llu pages) at %d touches\n",
                (unsigned long long)deep_daemon.replay_pages,
                (unsigned long long)deep_thirds.replay_pages,
                deep_daemon.touches);
    ok = false;
  }
  if (big.tree_pages <= kBigTreeCacheFrames) {
    std::printf("GATE: big-tree row has %llu tree pages, not more than the "
                "%zu-frame cache\n",
                (unsigned long long)big.tree_pages, kBigTreeCacheFrames);
    ok = false;
  }
  if (big.nt_sectors_read != big.sweep_sectors) {
    std::printf("GATE: big-tree mount read %llu name-table sectors, the "
                "sweep alone reads %llu\n",
                (unsigned long long)big.nt_sectors_read,
                (unsigned long long)big.sweep_sectors);
    ok = false;
  }
  std::printf("\nrecovery-window gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv,
             {{"--smoke"}, {"--ckpt"}, {"--json", /*takes_value=*/true}});
  if (HasFlag(argc, argv, "--ckpt")) {
    return CkptMain(argc, argv);
  }
  const bool smoke = SmokeMode(argc, argv);
  // Smoke mode shrinks populations ~10x; recovery still exercises log
  // replay, VAM rebuild, scavenge, and fsck.
  const std::vector<std::uint32_t> sweep =
      smoke ? std::vector<std::uint32_t>{300u, 1000u}
            : std::vector<std::uint32_t>{1000u, 3000u, 6000u, 10000u};
  const std::vector<std::uint32_t> ablation =
      smoke ? std::vector<std::uint32_t>{1000u}
            : std::vector<std::uint32_t>{3000u, 10000u};
  const std::uint32_t scavenge_files = smoke ? 600u : 6000u;

  std::printf("Recovery benchmarks (300 MB simulated volume)\n\n");

  std::printf("FSD crash recovery vs population:\n");
  std::printf("%8s %10s %10s %10s\n", "files", "replay s", "rebuild s",
              "total s");
  for (std::uint32_t files : sweep) {
    double replay = 0;
    double rebuild = 0;
    const double total = FsdRecoverySeconds(files, &replay, &rebuild);
    std::printf("%8u %10.1f %10.1f %10.1f\n", files, replay, rebuild, total);
  }
  std::printf("(paper: replay <= 2 s, VAM rebuild ~20 s, worst ~25 s)\n\n");

  std::printf("Extension ablation — VAM logging (section 5.3's deferred\n"
              "modification: \"would greatly decrease worst case crash\n"
              "recovery time from about twenty five seconds to about two\n"
              "seconds\"):\n");
  std::printf("%8s %10s %10s\n", "files", "rebuild s", "vamlog s");
  for (std::uint32_t files : ablation) {
    double replay = 0;
    double rebuild = 0;
    const double slow = FsdRecoverySeconds(files, &replay, &rebuild, false);
    const double fast = FsdRecoverySeconds(files, &replay, &rebuild, true);
    std::printf("%8u %10.1f %10.1f\n", files, slow, fast);
  }
  std::printf("\n");

  {
    Rig rig;
    cedar::cfs::Cfs cfs(&rig.disk, cedar::cfs::CfsConfig{});
    CEDAR_CHECK_OK(cfs.Format());
    cedar::Rng rng(5);
    cedar::workload::SizeDistribution sizes;
    CEDAR_CHECK_OK(
        cedar::workload::PopulateVolume(&cfs, "v/", scavenge_files, sizes,
                                        rng)
            .status());
    const double seconds = TimedMs(rig.clock, [&] {
                             cedar::cfs::Cfs recovered(
                                 &rig.disk, cedar::cfs::CfsConfig{});
                             CEDAR_CHECK_OK(recovered.Scavenge());
                           }) /
                           1000.0;
    std::printf("CFS scavenge, %u files: %.0f s (paper: 3600+ s)\n",
                scavenge_files, seconds);
  }
  {
    Rig rig;
    cedar::bsd::Ffs ffs(&rig.disk, cedar::bsd::FfsConfig{});
    CEDAR_CHECK_OK(ffs.Format());
    cedar::Rng rng(5);
    cedar::workload::SizeDistribution sizes;
    CEDAR_CHECK_OK(
        cedar::workload::PopulateVolume(&ffs, "v/", scavenge_files, sizes,
                                        rng)
            .status());
    const double seconds =
        TimedMs(rig.clock,
                [&] {
                  cedar::bsd::Ffs recovered(&rig.disk,
                                            cedar::bsd::FfsConfig{});
                  CEDAR_CHECK_OK(recovered.Fsck());
                }) /
        1000.0;
    std::printf("4.3 BSD fsck, %u files: %.0f s (paper: ~420 s)\n",
                scavenge_files, seconds);
  }
  return 0;
}
