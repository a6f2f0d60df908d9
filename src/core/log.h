// The FSD redo log (paper section 5.3).
//
// A circular region of the disk, placed near the central cylinder, holding
// physical page images of file-name-table pages and leader pages. Layout:
//
//   base+0   pointer page: offset of the first valid record in the oldest
//            third and the boot that last formatted the log (replicated at
//            base+2 with a blank page between — the same data is never
//            written to adjacent sectors)
//   base+1   blank
//   base+2   pointer copy
//   base+3   blank
//   base+4.. record area, divided into three equal "thirds"
//
// A record with n pages occupies 2n+5 sectors, written in ONE disk request:
//
//   [header][blank][header'][D1..Dn][end][D1'..Dn'][end']
//
// so a one-page record is seven 512-byte sectors (the paper's number), and
// any one- or two-sector failure inside the record is repairable from the
// copies and detectable by matching the header and end pairs.
//
// Records never straddle a third boundary (or the end of the area): a skip
// marker sector is written and the record starts at the boundary. Entering
// a new third is a synchronous checkpoint to the third boundary: the
// owner's callback writes home every page logged below the first live
// record outside that third, then the log drops the records below that
// bound and durably advances the oldest-record pointer. This simple scheme
// keeps an average of 5/6 of the log in use.

#ifndef CEDAR_CORE_LOG_H_
#define CEDAR_CORE_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "src/sim/device.h"
#include "src/util/status.h"

namespace cedar::core {

inline constexpr sim::Lba kNoLba = 0xFFFFFFFFu;

// Group-commit rendezvous (paper section 3.2: "if several processes are
// waiting, one log write commits them all"). There is no commit thread: the
// op that needs a force runs it, as xv6's end_op does (SNIPPETS.md).
//
// Sequence discipline:
//   - Every mutating FS operation calls RecordUpdate() after applying its
//     change, obtaining a monotonically increasing update sequence number.
//   - A caller needing every update up to `seq` durable calls Join(seq).
//     When no force is in flight, Join elects the caller leader: it runs
//     the force and Publish()es the sequence its capture covered. When one
//     is in flight, the caller follows: it waits for that force and checks
//     again. A follower whose update the force covered is committed by the
//     leader's one log write (a *piggyback*); one whose update came after
//     the capture leads or follows the next force.
//   - A failed force does not advance the durable sequence: the followers
//     it covered get the leader's error, and the next Join leads a retry.
//
// The queue's mutex is a leaf: it is never held while acquiring any other
// lock. Followers wait holding at most their name shard, which no force
// needs (DESIGN.md section 4e).
class CommitQueue {
 public:
  // The role a Join took. kLeader MUST run the force and then Publish its
  // outcome. kDurable found every update up to `seq` durable without
  // waiting. kFollowed waited for a force led by another caller and needs
  // none of its own: the force made `seq` durable, or covered it and failed
  // (a *piggyback* either way).
  enum class Role : std::uint8_t { kLeader, kDurable, kFollowed };

  // Join's `seq` for a caller that needs some force to finish after the
  // call, whatever the update sequence says: a page can be pending capture
  // before its op records its update (space forces).
  static constexpr std::uint64_t kNextForce =
      std::numeric_limits<std::uint64_t>::max();

  // Called by mutating operations (inside the op gate); returns the
  // operation's update sequence number.
  std::uint64_t RecordUpdate() {
    return update_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t latest_update() const {
    return update_seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t durable_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_seq_;
  }

  // Elects the caller leader when no force is in flight; otherwise waits
  // for the force in flight and checks again. *status is OK unless the
  // caller followed a force that covered `seq` and failed (that force's
  // error). Any force finishing while the caller waits covers kNextForce.
  // MUST be called holding no lock a force takes.
  Role Join(std::uint64_t seq, Status* status) {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    for (;;) {
      if (durable_seq_ >= seq) {
        *status = OkStatus();
        return waited ? Role::kFollowed : Role::kDurable;
      }
      if (!in_flight_) {
        in_flight_ = true;
        return Role::kLeader;
      }
      const std::uint64_t round = rounds_;
      done_cv_.wait(lock, [&] { return rounds_ != round; });
      waited = true;
      // A force that covered `seq` without making it durable failed.
      if (durable_seq_ < seq && (seq == kNextForce || last_seq_ >= seq)) {
        *status = last_status_;
        return Role::kFollowed;
      }
    }
  }

  // Leader side: publishes the force outcome and releases the followers.
  // A successful force makes every update up to `captured_seq` durable.
  void Publish(std::uint64_t captured_seq, const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = false;
    ++rounds_;
    if (status.ok() && captured_seq > durable_seq_) {
      durable_seq_ = captured_seq;
    }
    last_seq_ = captured_seq;
    last_status_ = status;
    done_cv_.notify_all();
  }

 private:
  std::atomic<std::uint64_t> update_seq_{0};

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // followers wait here
  std::uint64_t durable_seq_ = 0;    // everything <= this is in the log
  std::uint64_t rounds_ = 0;         // forces published so far
  std::uint64_t last_seq_ = 0;       // sequence the last force captured
  bool in_flight_ = false;           // a leader is forcing
  Status last_status_ = OkStatus();  // outcome of the last force
};

// One logged page: its image and where it lives on disk (secondary is
// kNoLba for leader pages, which have a single home).
//
// kTombstone cancels any earlier in-log image of the same primary LBA
// during replay. Deletes log one for the leader page: without it, a crash
// after the freed sector was reallocated would let replay write the dead
// file's leader over the new owner's data.
//
// kVamDelta pages carry serialized allocation-map changes (the paper's
// considered-but-deferred "VAM logging" extension, section 5.3); they have
// no home sectors and are interpreted by the owner at recovery.
enum class PageKind : std::uint8_t {
  kPage = 0,
  kTombstone = 1,
  kVamDelta = 2,
};

struct PageImage {
  sim::Lba primary = kNoLba;
  sim::Lba secondary = kNoLba;
  PageKind kind = PageKind::kPage;
  std::vector<std::uint8_t> data;  // exactly one sector
};

struct LogStats {
  std::uint64_t records = 0;
  std::uint64_t pages_logged = 0;
  std::uint64_t sectors_written = 0;  // record + marker + pointer sectors
  std::uint64_t markers = 0;
  std::uint64_t third_entries = 0;
  std::uint32_t max_record_sectors = 0;
  // Histogram-ish: record size accumulators for the section 5.4 numbers.
  std::uint64_t total_record_sectors = 0;
};

// Thread safety: FsdLog's append/recover paths and stats run under the
// owning file system's core lock (there is exactly one log writer at a
// time — the group-commit discipline demands it). The embedded CommitQueue
// is the only part clients touch without that lock.
class FsdLog {
 public:
  // Third-entry callback: write home every cached page whose latest logged
  // image has LSN < `bound`. `bound` is the first live record outside the
  // third being entered (or next_lsn() if there is none), so every record
  // below it is about to be overwritten.
  using ThirdEntryFn = std::function<Status(std::uint64_t bound)>;

  static constexpr std::uint32_t kMaxPagesPerRecord = 52;

  FsdLog(sim::BlockDevice* disk, sim::Lba base, std::uint32_t size_sectors);

  // Initializes an empty log (pointer at offset 0, naming `boot_count` as
  // the boot that formatted it).
  Status Format(std::uint32_t boot_count);

  // Appends one whole commit group: the images are chunked into records of
  // at most kMaxPagesPerRecord (each one disk write), tagged with group
  // start/end flags, and — the load-bearing part — space for the ENTIRE
  // group is reserved up front, handling skip markers, third entry and
  // wrap, so a group never straddles a third boundary. That guarantees
  // recovery sees all of the group's records or none (no orphaned tails
  // whose start third was reclaimed mid-group), which is what makes a
  // multi-record force atomic. pages.size() must be <= MaxGroupPages().
  // Returns the LSN of the group's first record (not of any skip marker
  // written before it).
  Result<std::uint64_t> AppendGroup(std::span<const PageImage> pages,
                                    const ThirdEntryFn& enter_third);

  // Largest page count AppendGroup accepts: the biggest group whose total
  // sectors still fit strictly inside one third.
  std::uint32_t MaxGroupPages() const;

  // Total sectors a group of n pages occupies once chunked into records.
  static std::uint32_t GroupSectors(std::uint32_t n) {
    const std::uint32_t records =
        (n + kMaxPagesPerRecord - 1) / kMaxPagesPerRecord;
    return 2 * n + 5 * records;
  }

  // Re-reads and validates the on-disk oldest-record pointer (both copies);
  // the structural well-formedness probe used by Fsck.
  Status ValidatePointer();

  // Replays the log after a crash: scans records from the oldest-third
  // pointer, repairs single-sector damage from the duplicate copies, stops
  // at the first invalid/torn record or the first one stamped with a boot
  // older than the pointer's format boot, and calls `visit(lsn, pages)` for
  // each complete record in order. Afterwards the log is positioned to
  // continue appending (with `boot_count` stamped on new records).
  Status Recover(const std::function<Status(
                     std::uint64_t, const std::vector<PageImage>&)>& visit,
                 std::uint32_t boot_count);

  // ---- Continuous checkpoint interface. Like the append path, these run
  // under the owner's force lock: there is one log writer at a time, and
  // the checkpointer counts as a writer (it moves the durable pointer).

  // Sectors of log between the oldest live record and the append position —
  // exactly what a crash-now mount would scan. 0 when the log is empty.
  std::uint32_t LiveSectors() const;

  // LSN of the oldest live record (the current checkpoint floor); 0 when
  // the log holds no records.
  std::uint64_t OldestLiveLsn() const {
    return live_.empty() ? 0 : live_.front().lsn;
  }

  // Picks an advance target for a checkpoint: the first group-start
  // boundary whose remaining live span is <= `goal_sectors` (0 asks for the
  // maximal safe advance). Targets are always commit-group boundaries —
  // advancing into the middle of a group would make recovery start at a
  // groupless tail — and always leave at least one live record, so the
  // persisted pointer keeps naming a real record. Returns 0 when there is
  // nothing to drop (fewer than two records, or no boundary).
  std::uint64_t CheckpointTarget(std::uint32_t goal_sectors) const;

  // Durably advances the oldest-record pointer past every record with
  // lsn < target_lsn. `target_lsn` must come from CheckpointTarget(). The
  // caller must already have written home (and flushed) every page whose
  // only durable copy lives in the dropped records. Returns the number of
  // records dropped from the replay window.
  Result<std::uint32_t> AdvanceCheckpoint(std::uint64_t target_lsn);

  // Group-commit rendezvous; safe to use from any thread.
  CommitQueue& commit_queue() { return commit_queue_; }

  const LogStats& stats() const { return stats_; }
  std::uint32_t record_area_sectors() const { return size_sectors_ - 4; }
  std::uint32_t third_sectors() const { return record_area_sectors() / 3; }
  int current_third() const { return current_third_; }
  std::uint64_t next_lsn() const { return next_lsn_; }

  // Sectors a record with n pages occupies (for capacity planning/tests).
  static std::uint32_t RecordSectors(std::uint32_t n) { return 2 * n + 5; }

 private:
  static constexpr std::uint32_t kNoOffset = 0xFFFFFFFFu;

  // One element of the live-record index: every record (and skip marker)
  // between the persisted oldest pointer and pos_, in LSN order. The front
  // is what the on-disk pointer names; checkpoints (third entry included)
  // pop from the front, appends push at the back.
  struct LiveRecord {
    std::uint64_t lsn = 0;
    std::uint32_t offset = 0;      // within the record area
    bool group_boundary = true;    // group-start record or standalone marker
  };

  int ThirdOf(std::uint32_t offset) const {
    const std::uint32_t t = offset / third_sectors();
    return static_cast<int>(t > 2 ? 2 : t);
  }
  std::uint32_t ThirdStart(int third) const {
    return static_cast<std::uint32_t>(third) * third_sectors();
  }
  sim::Lba AreaLba(std::uint32_t offset) const { return base_ + 4 + offset; }

  Status WritePointer();
  // Reads the oldest-record offset, and (when non-null) the boot that last
  // formatted the log into *format_boot.
  Result<std::uint32_t> ReadPointer(std::uint32_t* format_boot);
  // Skip-marker + third-entry handling for an append of `len` sectors:
  // ensures [pos_, pos_+len) lies inside one third, invoking `enter_third`
  // and advancing the oldest pointer when a new third is entered.
  Status PrepareSpace(std::uint32_t len, const ThirdEntryFn& enter_third);
  // Appends one already-prepared record at pos_ (no boundary handling).
  Status AppendPrepared(std::span<const PageImage> pages, bool group_start,
                        bool group_end);

  std::vector<std::uint8_t> BuildHeaderSector(std::span<const PageImage> pages,
                                              bool group_start,
                                              bool group_end) const;
  std::vector<std::uint8_t> BuildEndSector() const;
  std::vector<std::uint8_t> BuildMarkerSector() const;

  sim::BlockDevice* disk_;
  sim::Lba base_;
  std::uint32_t size_sectors_;

  std::uint64_t next_lsn_ = 1;
  std::uint32_t boot_count_ = 0;   // stamped on new records
  std::uint32_t format_boot_ = 0;  // boot of the last Format (in the pointer)
  std::uint32_t pos_ = 0;  // next write offset within the record area
  int current_third_ = 0;
  std::uint32_t oldest_pointer_ = 0;
  std::deque<LiveRecord> live_;
  LogStats stats_;
  CommitQueue commit_queue_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_LOG_H_
