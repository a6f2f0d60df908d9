// Robustness demonstration: the section 5.8 error classes, injected one at
// a time against a live FSD volume.
//
//   1. a damaged name-table sector        -> repaired from the replica
//   2. a damaged log sector               -> repaired from the in-record copy
//   3. a wild write over a leader page    -> caught by the leader check
//   4. a torn multi-page tree update      -> made atomic by the log
//   5. a stale VAM after a crash          -> rebuilt from the name table
//   6. damaged boot pages                 -> read from the replicated copy

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace {

void Headline(int n, const char* what) { std::printf("\n[%d] %s\n", n, what); }

}  // namespace

int main() {
  using namespace cedar;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  auto fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd->Format());

  for (int i = 0; i < 50; ++i) {
    CEDAR_CHECK_OK(fsd->CreateFile("lib/m" + std::to_string(i),
                                   std::vector<std::uint8_t>(2500, 7))
                       .status());
  }
  CEDAR_CHECK_OK(fsd->Shutdown());
  CEDAR_CHECK_OK(fsd->Mount());

  Headline(1, "medium error on a primary name-table sector");
  disk.DamageSectors(fsd->layout().nta_base + 2, 2);
  auto list = fsd->List("lib/");
  CEDAR_CHECK_OK(list.status());
  const obs::Counter* nt_repairs = fsd->Metrics().FindCounter("fsd.nt_repairs");
  CEDAR_CHECK(nt_repairs != nullptr);
  std::printf("    list still sees %zu files; %llu replica repairs issued\n",
              list->size(), (unsigned long long)nt_repairs->value());

  Headline(2, "medium error inside a log record");
  CEDAR_CHECK_OK(fsd->Touch("lib/m1"));
  CEDAR_CHECK_OK(fsd->Force());
  disk.DamageSectors(fsd->layout().log_base + 4 + 3, 1);  // a data page
  disk.CrashNow();
  disk.Reopen();
  fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd->Mount());
  const obs::Counter* replayed =
      fsd->Metrics().FindCounter("fsd.recovery_pages_replayed");
  CEDAR_CHECK(replayed != nullptr);
  std::printf("    recovery replayed %llu pages despite the damage\n",
              (unsigned long long)replayed->value());

  Headline(3, "wild write (memory smash) over a leader page");
  CEDAR_CHECK_OK(
      fsd->CreateFile("victim", std::vector<std::uint8_t>(600, 9)).status());
  CEDAR_CHECK_OK(fsd->Shutdown());  // clear open state: next read re-verifies
  CEDAR_CHECK_OK(fsd->Mount());
  // Smash a swath of the small-file area, leaders included. On labeled
  // hardware (CFS) the microcode would refuse these writes; on commodity
  // hardware only the leader/name-table cross-check stands in the way.
  for (sim::Lba lba = fsd->layout().data_low;
       lba < fsd->layout().data_low + 512; ++lba) {
    disk.WildWrite(lba, lba * 17);
  }
  auto handle = fsd->Open("victim");
  CEDAR_CHECK_OK(handle.status());
  std::vector<std::uint8_t> out(600);
  Status read = fsd->Read(*handle, 0, out);
  std::printf("    first read after the smash: %s\n",
              read.ok() ? "NOT caught (bad!)" : read.ToString().c_str());

  Headline(4, "torn multi-page name-table update");
  std::printf("    (see FsdCrashMatrixTest: crash at every write index "
              "leaves the tree consistent)\n");

  Headline(5, "stale VAM after crash");
  disk.CrashNow();
  disk.Reopen();
  fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  const sim::Micros t0 = clock.now();
  CEDAR_CHECK_OK(fsd->Mount());
  std::printf("    VAM rebuilt from the name table in %.1f virtual s; "
              "%u sectors free\n",
              static_cast<double>(clock.now() - t0) / 1e6,
              fsd->FreeSectors());

  Headline(6, "damaged boot page");
  disk.DamageSectors(0, 1);  // the volume root
  fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  Status mounted = fsd->Mount();
  std::printf("    mount with damaged root sector: %s (via replica at +2)\n",
              mounted.ToString().c_str());
  return 0;
}
