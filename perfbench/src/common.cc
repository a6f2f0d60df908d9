#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/bench.h"
#include "src/util/check.h"

namespace perfbench {

namespace core = cedar::core;
namespace sim = cedar::sim;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// splitmix64: a fast, well-mixed stream; eight content bytes per step.
std::uint64_t SplitMix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void FillContents(std::uint64_t seed, std::span<std::uint8_t> out) {
  std::uint64_t state = seed;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = SplitMix(&state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const std::uint64_t word = SplitMix(&state);
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

bool ContentsMatch(std::uint64_t seed, std::span<const std::uint8_t> bytes) {
  std::uint64_t state = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const std::uint64_t word = SplitMix(&state);
    if (std::memcmp(bytes.data() + i, &word, 8) != 0) return false;
  }
  if (i < bytes.size()) {
    const std::uint64_t word = SplitMix(&state);
    if (std::memcmp(bytes.data() + i, &word, bytes.size() - i) != 0) {
      return false;
    }
  }
  return true;
}

Volume::Volume(const sim::DiskGeometry& geometry,
               const core::FsdConfig& fsd_config, bool trace)
    : config(fsd_config) {
  disk = std::make_unique<sim::SimDisk>(geometry, sim::DiskTimingParams{},
                                        &clock);
  if (trace) {
    // Only the op-class aggregates are read; keep the event ring small.
    disk_tracer = std::make_unique<cedar::obs::DiskTracer>(256);
    disk->set_tracer(disk_tracer.get());
  }
  device = std::make_unique<TracedDevice>(disk.get());
  fsd = std::make_unique<core::Fsd>(device.get(), config);
  CEDAR_CHECK_OK(fsd->Format());
  device->SetLayout(fsd->layout(), config);
  Attach();
}

void Volume::Attach() {
  fs = std::make_unique<TracedFs>(fsd.get(), fsd.get(), Layer::kCore,
                                  ClockSum{{&clock}});
}

cedar::Status Volume::CrashAndRecover(RunResult* result) {
  fs.reset();
  disk->CrashNow();
  fsd.reset();  // joins the commit and checkpoint daemons
  disk->Reopen();
  fsd = std::make_unique<core::Fsd>(device.get(), config);
  auto mount_disk_us = [this] {
    return disk_tracer ? static_cast<double>(
                             disk_tracer->AggregateFor("fsd.mount").TotalUs())
                       : 0.0;
  };
  const double disk_before = mount_disk_us();
  const ClockSum vclock{{&clock}};
  const sim::Micros v0 = clock.now();
  const double w0 = WallSeconds();
  cedar::Status status;
  {
    Scope span(kCoreOpNames[kOpMount], Layer::kCore, vclock);
    status = fsd->Mount();
  }
  result->recovery_wall_ms.push_back((WallSeconds() - w0) * 1e3);
  result->recovery_vs.push_back(static_cast<double>(clock.now() - v0) / 1e6);
  result->recovery_pages.push_back(
      static_cast<double>(fsd->stats().recovery_pages_replayed));
  result->recovery_disk_vms.push_back((mount_disk_us() - disk_before) / 1e3);
  Attach();
  return status;
}

Counters Snapshot(Volume& volume) {
  Counters c;
  const cedar::obs::MetricsSnapshot snap = volume.fsd->SnapshotMetrics();
  for (const char* name :
       {"fsd.forces", "fsd.empty_forces", "fsd.pages_captured",
        "fsd.space_forces", "fsd.third_flush_pages"}) {
    c[name] = static_cast<double>(snap.CounterValue(name));
  }
  const cedar::fs::MaintenanceStats m = volume.fsd->Maintenance();
  c["maint.checkpoint_pages"] = static_cast<double>(m.checkpoint_pages);
  c["maint.checkpoint_batches"] = static_cast<double>(m.checkpoint_batches);
  c["maint.third_flush_fallbacks"] =
      static_cast<double>(m.third_flush_fallbacks);
  const sim::DiskStats d = volume.disk->stats();
  c["disk.requests"] = static_cast<double>(d.TotalIos());
  c["disk.sectors_read"] = static_cast<double>(d.sectors_read);
  c["disk.sectors_written"] = static_cast<double>(d.sectors_written);
  c["disk.seek_us"] = static_cast<double>(d.seek_us);
  c["disk.rotational_us"] = static_cast<double>(d.rotational_us);
  c["disk.transfer_us"] = static_cast<double>(d.transfer_us);
  c["disk.busy_us"] = static_cast<double>(d.busy_us);
  if (volume.disk_tracer) {
    for (const char* op : {"fsd.log_force", "fsd.ckpt", "fsd.flush_third"}) {
      c[std::string("agg.") + op + ".us"] = static_cast<double>(
          volume.disk_tracer->AggregateFor(op).TotalUs());
    }
  }
  for (int r = 0; r < kRegionCount; ++r) {
    c[std::string("read.") + RegionName(r)] =
        static_cast<double>(volume.device->sectors_read(r));
    c[std::string("written.") + RegionName(r)] =
        static_cast<double>(volume.device->sectors_written(r));
  }
  c["clock_us"] = static_cast<double>(volume.clock.now());
  return c;
}

void AddDelta(Counters* sum, const Counters& end, const Counters& begin) {
  for (const auto& [name, value] : end) {
    auto it = begin.find(name);
    (*sum)[name] += value - (it == begin.end() ? 0.0 : it->second);
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

void RunResult::Fail(const std::string& note) {
  ++failures;
  if (failure_notes.size() < 20) {
    failure_notes.push_back(note);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", note.c_str());
  }
}

void RunResult::ClosePass(std::size_t first, double wall_s) {
  const std::vector<double> pass(op_wall_us.begin() +
                                     static_cast<std::ptrdiff_t>(first),
                                 op_wall_us.end());
  if (pass.empty() || wall_s <= 0) return;
  pass_wall_ops_per_s.push_back(static_cast<double>(pass.size()) / wall_s);
  pass_wall_p50_us.push_back(Percentile(pass, 0.50));
  pass_wall_p99_us.push_back(Percentile(pass, 0.99));
}

void RunResult::MergeChecks(const RunResult& other) {
  checks += other.checks;
  misses += other.misses;
  failures += other.failures;
  for (const std::string& note : other.failure_notes) {
    if (failure_notes.size() < 20) failure_notes.push_back(note);
  }
}

void RunResult::Merge(RunResult&& other) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&op_wall_us, other.op_wall_us);
  append(&op_vus, other.op_vus);
  append(&force_vus, other.force_vus);
  ops += other.ops;
  updates += other.updates;
  user_bytes += other.user_bytes;
  MergeChecks(other);
}

}  // namespace perfbench
