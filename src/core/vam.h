// The FSD Volume Allocation Map (paper section 5.5).
//
// Entirely volatile during normal operation: no disk writes at all. Pages of
// deleted files go to a *shadow* list of freed extents first, because they
// are not really free until the delete is committed (logged); each group
// commit takes the shadow at capture and folds it into the free map once
// the log write is durable (TakeShadow/FoldShadow).
//
// The map is saved to its disk region only on orderly shutdown, stamped with
// the boot count; at mount a stamp mismatch means the save is stale and the
// map must be reconstructed from the name table (the caller does the scan).
//
// Thread safety: the bitmap mutators and point queries take a short internal
// mutex so allocation state stays coherent under concurrent FSD clients. The
// raw `free()` / `nt_free()` bitmap accessors bypass the lock and are only
// safe under the owning file system's allocator lock (alloc_mu_ in FSD —
// allocator scans, VAM reconstruction, Save/Load, Fsck all hold it).

#ifndef CEDAR_CORE_VAM_H_
#define CEDAR_CORE_VAM_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/fsapi/extent.h"
#include "src/sim/device.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace cedar::core {

// One allocation-map change, for the VAM-logging extension (the paper's
// section 5.3 "YAM logging ... would greatly decrease worst case crash
// recovery time from about twenty five seconds to about two seconds").
// Deltas ride in the log's kVamDelta pages; recovery applies them over the
// last base snapshot instead of scanning the whole name table.
struct VamDelta {
  enum class Op : std::uint8_t {
    kAlloc = 0,    // data sectors became used
    kFree = 1,     // data sectors became free (at commit)
    kNtAlloc = 2,  // a name-table page was allocated
    kNtFree = 3,
  };
  Op op = Op::kAlloc;
  std::uint32_t start = 0;
  std::uint32_t count = 0;
};

// Packs deltas into 512-byte log pages (kVamDeltasPerPage per page) and
// back. The constant is exported so FSD's log-space accounting can predict
// how many pages a pending delta queue will occupy.
inline constexpr std::size_t kVamDeltasPerPage = 56;
std::vector<std::vector<std::uint8_t>> SerializeDeltas(
    std::span<const VamDelta> deltas);
Status ParseDeltas(std::span<const std::uint8_t> page,
                   std::vector<VamDelta>* out);

class Vam {
 public:
  Vam(std::uint32_t total_sectors, std::uint32_t nt_pages)
      : free_(total_sectors, false), nt_free_(nt_pages, false) {}

  // Reinitializes both maps to the all-used state for a volume with these
  // dimensions (what the constructor builds) and empties the shadow.
  // Mount/Format use this instead of replacing the Vam object, so the mutex
  // stays put.
  void Reset(std::uint32_t total_sectors, std::uint32_t nt_pages) {
    std::lock_guard<std::mutex> lock(mu_);
    free_ = Bitmap(total_sectors, false);
    shadow_.clear();
    nt_free_ = Bitmap(nt_pages, false);
  }

  // ---- Free map. The raw bitmap accessors bypass the internal lock: core
  // lock only (see header comment).
  Bitmap& free() { return free_; }
  const Bitmap& free() const { return free_; }
  bool IsFree(std::uint32_t lba) const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.Get(lba);
  }
  void MarkUsed(const fs::Extent& run) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.SetRange(run.start, run.count, false);
  }
  void MarkFree(const fs::Extent& run) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.SetRange(run.start, run.count, true);
  }
  std::uint32_t FreeCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.Count();
  }

  // ---- Shadow for uncommitted deletes: the extents freed since the last
  // capture. They are disjoint until folded — a shadowed sector is not
  // free, so it cannot be allocated and deleted again before then.
  void MarkFreeShadow(const fs::Extent& run) {
    std::lock_guard<std::mutex> lock(mu_);
    shadow_.push_back(run);
  }
  std::uint32_t ShadowCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint32_t n = 0;
    for (const fs::Extent& run : shadow_) {
      n += run.count;
    }
    return n;
  }

  // ---- Shadow handoff for the parallel commit path. The log capture phase
  // *takes* the accumulated shadow (new deletes keep shadowing into an
  // empty list while the append runs), then folds it into the free map
  // once the group is durable — or merges it back if the append fails.
  std::vector<fs::Extent> TakeShadow() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<fs::Extent> taken;
    taken.swap(shadow_);
    return taken;
  }
  void FoldShadow(const std::vector<fs::Extent>& taken) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const fs::Extent& run : taken) {
      free_.SetRange(run.start, run.count, true);
    }
  }
  void MergeShadow(const std::vector<fs::Extent>& taken) {
    std::lock_guard<std::mutex> lock(mu_);
    shadow_.insert(shadow_.end(), taken.begin(), taken.end());
  }

  // ---- Name-table page allocation map (piggybacks on the VAM save).
  // Raw accessors: core lock only.
  Bitmap& nt_free() { return nt_free_; }
  const Bitmap& nt_free() const { return nt_free_; }

  // ---- Persistence (shutdown save / mount load / VAM-logging base).

  static constexpr std::uint32_t kAnyBoot = 0xFFFFFFFFu;

  // Writes the map (free bits + name-table bits) stamped with `boot_count`
  // and the log position `lsn` to `base`, as one request.
  Status Save(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
              std::uint32_t boot_count, std::uint64_t lsn = 0) const;

  // Loads a saved map. `expected_boot` of kAnyBoot accepts any stamp (the
  // VAM-logging recovery path, which trusts the lsn instead); otherwise a
  // stale stamp fails with kFailedPrecondition (caller reconstructs). The
  // save's lsn is returned through `lsn` when non-null.
  Status Load(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
              std::uint32_t expected_boot, std::uint64_t* lsn = nullptr);

  // Applies one delta (used by recovery).
  void Apply(const VamDelta& delta);

 private:
  mutable std::mutex mu_;
  Bitmap free_;
  std::vector<fs::Extent> shadow_;
  Bitmap nt_free_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_VAM_H_
