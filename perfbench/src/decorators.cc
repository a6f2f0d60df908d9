#include "src/decorators.h"

#include <utility>

#include "src/volume/router.h"

namespace perfbench {

using cedar::Result;
using cedar::Status;
namespace fs = cedar::fs;
namespace sim = cedar::sim;

const OpNames kCoreOpNames = {
    "core.create", "core.open", "core.read", "core.write", "core.extend",
    "core.delete", "core.list", "core.touch", "core.rename", "core.setkeep",
    "core.close", "core.force", "core.shutdown", "core.checkpoint",
    "core.recovery_window", "core.maintenance", "core.health", "core.stat",
    "core.tick", "core.mount"};
const OpNames kVolumeOpNames = {
    "volume.create", "volume.open", "volume.read", "volume.write",
    "volume.extend", "volume.delete", "volume.list", "volume.touch",
    "volume.rename", "volume.setkeep", "volume.close", "volume.force",
    "volume.shutdown", "volume.checkpoint", "volume.recovery_window",
    "volume.maintenance", "volume.health", "volume.stat", "volume.tick",
    "volume.mount"};

TracedFs::TracedFs(fs::FileSystem* inner, cedar::core::Fsd* fsd, Layer layer,
                   ClockSum clock)
    : inner_(inner),
      fsd_(fsd),
      layer_(layer),
      names_(layer == Layer::kVolume ? kVolumeOpNames : kCoreOpNames),
      clock_(std::move(clock)) {}

Result<fs::FileUid> TracedFs::CreateFile(
    std::string_view name, std::span<const std::uint8_t> contents) {
  auto span = Trace(kOpCreate);
  return inner_->CreateFile(name, contents);
}

Result<fs::FileHandle> TracedFs::Open(std::string_view name) {
  auto span = Trace(kOpOpen);
  return inner_->Open(name);
}

Status TracedFs::Read(const fs::FileHandle& file, std::uint64_t offset,
                      std::span<std::uint8_t> out) {
  auto span = Trace(kOpRead);
  return inner_->Read(file, offset, out);
}

Status TracedFs::Write(const fs::FileHandle& file, std::uint64_t offset,
                       std::span<const std::uint8_t> data) {
  auto span = Trace(kOpWrite);
  return inner_->Write(file, offset, data);
}

Status TracedFs::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  auto span = Trace(kOpExtend);
  return inner_->Extend(file, bytes);
}

Status TracedFs::DeleteFile(std::string_view name) {
  auto span = Trace(kOpDelete);
  return inner_->DeleteFile(name);
}

Result<std::vector<fs::FileInfo>> TracedFs::List(std::string_view prefix) {
  auto span = Trace(kOpList);
  return inner_->List(prefix);
}

Status TracedFs::Touch(std::string_view name) {
  auto span = Trace(kOpTouch);
  return inner_->Touch(name);
}

Status TracedFs::Rename(std::string_view from, std::string_view to) {
  bool cross = false;
  if (on_cross_rename && layer_ == Layer::kVolume) {
    const std::size_t n =
        static_cast<cedar::vol::VolumeRouter*>(inner_)->volume_count();
    cross = cedar::vol::VolumeRouter::VolumeOf(from, n) !=
            cedar::vol::VolumeRouter::VolumeOf(to, n);
  }
  if (cross) on_cross_rename(true);
  Status status;
  {
    auto span = Trace(kOpRename);
    status = inner_->Rename(from, to);
  }
  if (cross) on_cross_rename(false);
  return status;
}

Status TracedFs::SetKeep(std::string_view name, std::uint16_t keep) {
  auto span = Trace(kOpSetKeep);
  return inner_->SetKeep(name, keep);
}

Status TracedFs::Close(const fs::FileHandle& file) {
  auto span = Trace(kOpClose);
  return inner_->Close(file);
}

Status TracedFs::Force() {
  auto span = Trace(kOpForce);
  return inner_->Force();
}

Status TracedFs::Shutdown() {
  auto span = Trace(kOpShutdown);
  return inner_->Shutdown();
}

Status TracedFs::Checkpoint() {
  auto span = Trace(kOpCheckpoint);
  return inner_->Checkpoint();
}

Result<std::uint64_t> TracedFs::RecoveryWindow() {
  auto span = Trace(kOpRecoveryWindow);
  return inner_->RecoveryWindow();
}

fs::MaintenanceStats TracedFs::Maintenance() {
  auto span = Trace(kOpMaintenance);
  return inner_->Maintenance();
}

fs::HealthStats TracedFs::Health() {
  auto span = Trace(kOpHealth);
  return inner_->Health();
}

Result<fs::FileInfo> TracedFs::Stat(std::string_view name) {
  auto span = Trace(kOpStat);
  return fsd_->Stat(name);
}

Status TracedFs::Tick() {
  auto span = Trace(kOpTick);
  return fsd_->Tick();
}

const char* RegionName(int region) {
  static constexpr const char* kNames[kRegionCount] = {"log", "nt", "data",
                                                       "other"};
  return kNames[region];
}

TracedDevice::TracedDevice(sim::BlockDevice* inner)
    : inner_(inner), clock_{{&inner->clock()}} {}

void TracedDevice::SetLayout(const cedar::core::FsdLayout& layout,
                             const cedar::core::FsdConfig& config) {
  log_lo_ = layout.log_base;
  log_hi_ = layout.log_base + config.log_sectors;
  ntb_ = layout.ntb_base;
  nta_ = layout.nta_base;
  nt_pages_ = config.nt_pages;
  data_lo_ = layout.data_low;
  has_layout_ = true;
}

int TracedDevice::RegionOf(sim::Lba lba) const {
  if (!has_layout_) return kRegionOther;
  if (lba >= log_lo_ && lba < log_hi_) return kRegionLog;
  if ((lba >= ntb_ && lba < ntb_ + nt_pages_) ||
      (lba >= nta_ && lba < nta_ + nt_pages_)) {
    return kRegionNt;
  }
  return lba >= data_lo_ ? kRegionData : kRegionOther;
}

void TracedDevice::Count(std::atomic<std::uint64_t>* counters, sim::Lba start,
                         std::uint64_t sectors) {
  counters[RegionOf(start)].fetch_add(sectors, std::memory_order_relaxed);
}

namespace {

// A disk request from a thread with no open span comes from a daemon: it
// is recorded under a "core.background" span of its own.
const char* BackgroundName() {
  return Tracer::Get().InSpan() ? nullptr : kBackgroundSpan;
}

}  // namespace

Status TracedDevice::Read(sim::Lba start, std::span<std::uint8_t> out,
                          std::vector<std::uint32_t>* bad) {
  if (!Tracer::Get().enabled()) return inner_->Read(start, out, bad);
  Count(read_.data(), start, out.size() / sim::kSectorSize);
  Scope background(BackgroundName(), Layer::kCore, clock_);
  Scope request("sim.read", Layer::kSim, clock_);
  return inner_->Read(start, out, bad);
}

Status TracedDevice::Write(sim::Lba start,
                           std::span<const std::uint8_t> data) {
  if (!Tracer::Get().enabled()) return inner_->Write(start, data);
  Count(written_.data(), start, data.size() / sim::kSectorSize);
  Scope background(BackgroundName(), Layer::kCore, clock_);
  Scope request("sim.write", Layer::kSim, clock_);
  return inner_->Write(start, data);
}

}  // namespace perfbench
