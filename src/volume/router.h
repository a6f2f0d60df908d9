// VolumeRouter: a sharded namespace over N independent FSD volumes.
//
// One FSD volume is bounded (2^31 sectors, one log, one commit path), and
// its 16-way name-shard parallel commit saturates once every shard is hot.
// The router scales past that by hashing each file name's shard key (the
// same 16-way hash FSD uses internally, core::Fsd::ShardOf) onto one of N
// volumes. Each volume is a complete FSD rig — its own device (disk or
// array), log, group commit (whose forces also checkpoint), and virtual
// clock — so volumes commit, checkpoint, and recover fully independently;
// the router adds no shared lock on the operation path.
//
// Handles: the router returns fs::FileHandle values whose uid carries the
// owning volume index in the low 4 bits (uid' = uid << 4 | volume), so
// handle-addressed operations (Read/Write/Extend/Close) route statelessly.
// At most 16 volumes; FSD uids are small counters, so the shift cannot
// overflow in practice (checked).
//
// Cross-volume Rename is the one operation that spans two volumes. It runs
// as a logged two-step (the AsyncFS recipe):
//
//   step 1: copy the file to the destination volume (create + keep) and
//           FORCE the destination log — the new name is durable;
//   step 2: delete the source name and force the source log.
//
// A crash between the steps leaves both names present — duplicate, never
// lost — and each volume's own recovery makes its step atomic, so the
// durability oracle and Fsck stay clean on both volumes (the crash harness
// exercises exactly this cut). With `async_rename` the two-step runs on a
// background worker; dependency ordering is preserved by draining, before
// any routed operation, every queued rename that involves the operation's
// name (and Force/Shutdown/List drain the whole queue). Deferred errors
// surface at the next Force, like fsync.

#ifndef CEDAR_VOLUME_ROUTER_H_
#define CEDAR_VOLUME_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cedar::vol {

struct RouterConfig {
  // Run cross-volume renames on a background worker thread instead of
  // inline. Completion (and any error) is observable at the next Force().
  bool async_rename = false;
};

class VolumeRouter : public fs::FileSystem {
 public:
  static constexpr std::size_t kMaxVolumes = 16;  // 4 uid bits

  // `volumes` are borrowed, fully mounted file systems (normally core::Fsd
  // instances — each with its own device and log); the router adds the
  // namespace partition on top. Count must be in [1, kMaxVolumes].
  explicit VolumeRouter(std::vector<fs::FileSystem*> volumes,
                        RouterConfig config = {});
  ~VolumeRouter() override;

  // Which volume owns `name`: FSD's 16-way shard key folded onto N volumes,
  // so the name -> shard -> volume map is stable as N varies over the
  // divisors of 16 (a file stays on the same volume when N doubles only for
  // the shards that move — the usual static-shard growth story).
  static std::size_t VolumeOf(std::string_view name, std::size_t volumes) {
    return core::Fsd::ShardOf(name) % volumes;
  }
  std::size_t volume_count() const { return volumes_.size(); }
  fs::FileSystem& volume(std::size_t index) { return *volumes_[index]; }

  // ---- fs::FileSystem.
  Result<fs::FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) override;
  Result<fs::FileHandle> Open(std::string_view name) override;
  Status Read(const fs::FileHandle& file, std::uint64_t offset,
              std::span<std::uint8_t> out) override;
  Status Write(const fs::FileHandle& file, std::uint64_t offset,
               std::span<const std::uint8_t> data) override;
  Status Extend(const fs::FileHandle& file, std::uint64_t bytes) override;
  Status DeleteFile(std::string_view name) override;
  Result<std::vector<fs::FileInfo>> List(std::string_view prefix) override;
  Status Touch(std::string_view name) override;
  Status Rename(std::string_view from, std::string_view to) override;
  Status SetKeep(std::string_view name, std::uint16_t keep) override;
  Status Close(const fs::FileHandle& file) override;
  Status Force() override;
  Status Shutdown() override;
  Status Checkpoint() override;
  Result<std::uint64_t> RecoveryWindow() override;
  fs::MaintenanceStats Maintenance() override;
  fs::HealthStats Health() override;
  const obs::MetricsRegistry& Metrics() const override { return metrics_; }

  // Waits until every queued cross-volume rename has completed and returns
  // the first deferred error (clearing it). A no-op in sync mode.
  Status DrainRenames();

 private:
  struct RenameJob {
    std::string from;
    std::string to;
    std::size_t src = 0;
    std::size_t dst = 0;
    bool done = false;
  };

  fs::FileSystem& Route(std::string_view name) {
    return *volumes_[VolumeOf(name, volumes_.size())];
  }
  // Decodes a router handle into (volume, volume-local handle).
  fs::FileSystem& Unwrap(const fs::FileHandle& file,
                         fs::FileHandle* local) const;

  // Executes the two-step copy+delete for one job. Called by the worker
  // (async) or inline (sync); never holds rename_mu_.
  Status ExecuteRename(const RenameJob& job);

  // Blocks until no queued job involves `name` (dependency ordering: an
  // operation on a name must observe every rename that precedes it).
  void WaitForName(std::string_view name);
  void WorkerLoop();

  std::vector<fs::FileSystem*> volumes_;
  RouterConfig config_;

  obs::MetricsRegistry metrics_;
  obs::Counter* c_local_renames_ = nullptr;
  obs::Counter* c_cross_renames_ = nullptr;
  obs::Counter* c_async_renames_ = nullptr;

  // Async-rename state. jobs_ holds queued-but-unfinished jobs; the worker
  // pops work in FIFO order (which is what makes the per-name drain a
  // dependency barrier, not just a flush).
  mutable std::mutex rename_mu_;
  std::condition_variable rename_cv_;
  std::deque<RenameJob> jobs_;
  Status deferred_error_;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace cedar::vol

#endif  // CEDAR_VOLUME_ROUTER_H_
