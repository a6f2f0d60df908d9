// Forwarding decorators that time calls into each layer from outside.
//
// TracedFs wraps an fs::FileSystem (one core::Fsd, or the VolumeRouter) and
// TracedDevice wraps a sim::BlockDevice (one SimDisk). Every call is passed
// through unchanged; when the process-wide Tracer is enabled each call also
// records one span. Neither holds mutable state besides atomics, so both are
// as thread-safe as what they wrap.

#ifndef PERFBENCH_SRC_DECORATORS_H_
#define PERFBENCH_SRC_DECORATORS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/core/layout.h"
#include "src/fsapi/file_system.h"
#include "src/sim/device.h"
#include "src/span.h"

namespace perfbench {

// Virtual "now" of a layer: the sum of the clocks it spans (one for a
// volume, all of them for the router, whose calls may touch several).
struct ClockSum {
  std::vector<cedar::sim::VirtualClock*> clocks;
  std::uint64_t operator()() const {
    std::uint64_t sum = 0;
    for (const cedar::sim::VirtualClock* clock : clocks) sum += clock->now();
    return sum;
  }
};

using Scope = SpanScope<const ClockSum&>;

// Span names per decorated operation, one table per layer.
enum FsOp : int {
  kOpCreate, kOpOpen, kOpRead, kOpWrite, kOpExtend, kOpDelete, kOpList,
  kOpTouch, kOpRename, kOpSetKeep, kOpClose, kOpForce, kOpShutdown,
  kOpCheckpoint, kOpRecoveryWindow, kOpMaintenance, kOpHealth, kOpStat,
  kOpTick, kOpMount, kOpCount
};
using OpNames = std::array<const char*, kOpCount>;
extern const OpNames kCoreOpNames;
extern const OpNames kVolumeOpNames;

class TracedFs : public cedar::fs::FileSystem {
 public:
  // `fsd` is set when `inner` is a core::Fsd, enabling Stat/Tick/Mount.
  TracedFs(cedar::fs::FileSystem* inner, cedar::core::Fsd* fsd, Layer layer,
           ClockSum clock);

  cedar::Result<cedar::fs::FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) override;
  cedar::Result<cedar::fs::FileHandle> Open(std::string_view name) override;
  cedar::Status Read(const cedar::fs::FileHandle& file, std::uint64_t offset,
                     std::span<std::uint8_t> out) override;
  cedar::Status Write(const cedar::fs::FileHandle& file, std::uint64_t offset,
                      std::span<const std::uint8_t> data) override;
  cedar::Status Extend(const cedar::fs::FileHandle& file,
                       std::uint64_t bytes) override;
  cedar::Status DeleteFile(std::string_view name) override;
  cedar::Result<std::vector<cedar::fs::FileInfo>> List(
      std::string_view prefix) override;
  cedar::Status Touch(std::string_view name) override;
  cedar::Status Rename(std::string_view from, std::string_view to) override;
  cedar::Status SetKeep(std::string_view name, std::uint16_t keep) override;
  cedar::Status Close(const cedar::fs::FileHandle& file) override;
  cedar::Status Force() override;
  cedar::Status Shutdown() override;
  cedar::Status Checkpoint() override;
  cedar::Result<std::uint64_t> RecoveryWindow() override;
  cedar::fs::MaintenanceStats Maintenance() override;
  cedar::fs::HealthStats Health() override;
  const cedar::obs::MetricsRegistry& Metrics() const override {
    return inner_->Metrics();
  }

  // core::Fsd entry points outside fs::FileSystem (require `fsd`).
  cedar::Result<cedar::fs::FileInfo> Stat(std::string_view name);
  cedar::Status Tick();

  // Called around every cross-volume Rename (router layer only): lets the
  // workload count the forces such renames issue.
  std::function<void(bool before)> on_cross_rename;

 private:
  Scope Trace(FsOp op) const { return Scope(names_[op], layer_, clock_); }

  cedar::fs::FileSystem* inner_;
  cedar::core::Fsd* fsd_;
  Layer layer_;
  const OpNames& names_;
  ClockSum clock_;
};

// Sector counts per FSD region, split by direction.
enum Region : int { kRegionLog, kRegionNt, kRegionData, kRegionOther,
                    kRegionCount };
const char* RegionName(int region);

class TracedDevice : public cedar::sim::BlockDevice {
 public:
  explicit TracedDevice(cedar::sim::BlockDevice* inner);

  // Region classification of requests, against a formatted volume's layout.
  void SetLayout(const cedar::core::FsdLayout& layout,
                 const cedar::core::FsdConfig& config);
  std::uint64_t sectors_read(int region) const {
    return read_[region].load(std::memory_order_relaxed);
  }
  std::uint64_t sectors_written(int region) const {
    return written_[region].load(std::memory_order_relaxed);
  }

  const cedar::sim::DiskGeometry& geometry() const override {
    return inner_->geometry();
  }
  cedar::sim::VirtualClock& clock() override { return inner_->clock(); }
  cedar::sim::DiskStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  void set_tracer(cedar::obs::DiskTracer* tracer) override {
    inner_->set_tracer(tracer);
  }
  cedar::obs::DiskTracer* tracer() const override { return inner_->tracer(); }
  void AttachMetrics(cedar::obs::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }
  cedar::Status Read(cedar::sim::Lba start, std::span<std::uint8_t> out,
                     std::vector<std::uint32_t>* bad = nullptr) override;
  cedar::Status Write(cedar::sim::Lba start,
                      std::span<const std::uint8_t> data) override;
  void DamageSectors(cedar::sim::Lba start, std::uint32_t count) override {
    inner_->DamageSectors(start, count);
  }
  bool IsDamaged(cedar::sim::Lba lba) const override {
    return inner_->IsDamaged(lba);
  }
  void ArmCrash(const cedar::sim::CrashPlan& plan) override {
    inner_->ArmCrash(plan);
  }
  void CrashNow() override { inner_->CrashNow(); }
  bool crashed() const override { return inner_->crashed(); }
  void Reopen() override { inner_->Reopen(); }
  void BeginBatch() override { inner_->BeginBatch(); }
  void EndBatch() override { inner_->EndBatch(); }
  std::uint32_t HeadCylinder() const override {
    return inner_->HeadCylinder();
  }
  std::uint32_t spindle_count() const override {
    return inner_->spindle_count();
  }
  cedar::sim::DiskStats SpindleStats(std::uint32_t spindle) const override {
    return inner_->SpindleStats(spindle);
  }
  cedar::sim::DeviceSnapshot SnapshotDevice() const override {
    return inner_->SnapshotDevice();
  }
  void RestoreDevice(const cedar::sim::DeviceSnapshot& snapshot) override {
    inner_->RestoreDevice(snapshot);
  }
  bool DeviceStateEquals(
      const cedar::sim::DeviceSnapshot& snapshot) const override {
    return inner_->DeviceStateEquals(snapshot);
  }
  cedar::Status SaveImage(const std::string& path) const override {
    return inner_->SaveImage(path);
  }

 private:
  int RegionOf(cedar::sim::Lba lba) const;
  void Count(std::atomic<std::uint64_t>* counters, cedar::sim::Lba start,
             std::uint64_t sectors);

  cedar::sim::BlockDevice* inner_;
  ClockSum clock_;
  // Region bounds: [log_lo, log_hi), name table [ntb, ntb+n), [nta, nta+n).
  cedar::sim::Lba log_lo_ = 0, log_hi_ = 0, ntb_ = 0, nta_ = 0, nt_pages_ = 0;
  cedar::sim::Lba data_lo_ = 0;
  bool has_layout_ = false;
  std::array<std::atomic<std::uint64_t>, kRegionCount> read_{};
  std::array<std::atomic<std::uint64_t>, kRegionCount> written_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DECORATORS_H_
