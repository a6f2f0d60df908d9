// fanout_8v: the namespace sharded over eight small volumes by the
// VolumeRouter. One client, no daemons, so a seed fixes every virtual-time
// number. Eight tenants each own 64 files (plus one alias name per file)
// drawn Zipf(1.0); 15% of ops rename a file to its alias, which the hash
// puts on another volume about 7 times in 8. The rest are touches, new
// versions (keep=1), in-place rewrites and whole-file reads, with a client
// Force() every ~10 updates. Each layout ends with a crash of every volume.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <map>
#include <set>

#include "src/bench.h"
#include "src/model.h"
#include "src/util/random.h"
#include "src/volume/router.h"
#include "src/workload/zipf.h"

namespace perfbench {
namespace {

namespace core = cedar::core;
using cedar::Rng;
using cedar::vol::VolumeRouter;
using cedar::workload::ZipfSampler;

constexpr std::uint32_t kVolumes = 8;
constexpr std::uint32_t kTenants = 8;
constexpr std::uint32_t kFilesPerTenant = 64;
constexpr std::uint32_t kLayoutOps = 16000;
// A pass runs four layouts: the workload on four seeds derived from the
// run's seed. Where the hot files land on the disks differs from layout to
// layout; pooling four keeps a seed's virtual percentiles close to the
// workload's rather than to one layout's.
constexpr std::uint64_t kLayouts = 4;
constexpr int kSetups = 3;

std::uint64_t LayoutSeed(std::uint64_t seed, std::uint64_t layout) {
  return seed * kLayouts + layout;
}

cedar::sim::DiskGeometry FanoutGeometry() {
  cedar::sim::DiskGeometry geometry;
  geometry.cylinders = 96;  // ~26 MB per volume
  return geometry;
}

core::FsdConfig FanoutConfig() {
  core::FsdConfig config;
  config.log_sectors = 800;
  config.nt_pages = 512;
  config.cache_frames = 2048;
  return config;
}

// A file's two names: "t<k>/f<r>.db" and its alias "t<k>/g<r>.db". Files
// keep one version, so exactly one of the two names is live at any time and
// a rename always moves the whole file onto an unused name.
std::string FanoutName(std::uint32_t tenant, std::uint32_t rank, bool alias) {
  char name[32];
  std::snprintf(name, sizeof(name), "t%u/%c%02u.db", tenant, alias ? 'g' : 'f',
                rank);
  return name;
}

// One layout: eight fresh volumes, the op loop, then a crash of all eight.
class FanoutLayout {
 public:
  FanoutLayout(std::uint64_t seed, bool traced, RunResult* result)
      : rng_(seed),
        traced_(traced),
        result_(result),
        zipf_(kFilesPerTenant, 1.0) {}

  // Builds and formats the volumes and creates every tenant's files.
  void Setup(bool trace_capable) {
    const double setup_start = WallSeconds();
    for (std::uint32_t v = 0; v < kVolumes; ++v) {
      volumes_.push_back(std::make_unique<Volume>(
          FanoutGeometry(), FanoutConfig(), trace_capable));
      vclock_.clocks.push_back(&volumes_.back()->clock);
    }
    MakeRouter();
    Populate();
    result_->setup_s.push_back(WallSeconds() - setup_start);
  }

  // Returns the host seconds spent in client ops.
  double Run() {
    std::vector<Counters> begin;
    std::vector<double> clock0;
    for (auto& volume : volumes_) {
      begin.push_back(Snapshot(*volume));
      clock0.push_back(static_cast<double>(volume->clock.now()));
    }
    Tracer::Get().SetEnabled(traced_);
    if (traced_) {
      std::vector<const cedar::obs::Counter*> force_counters;
      for (auto& volume : volumes_) {
        force_counters.push_back(
            volume->fsd->Metrics().FindCounter("fsd.forces"));
      }
      router_fs_->on_cross_rename = [this, force_counters](bool before) {
        double forces = 0;
        for (const cedar::obs::Counter* counter : force_counters) {
          forces += static_cast<double>(counter->value());
        }
        cross_forces_ += before ? -forces : forces;
      };
    }
    const double start = WallSeconds();
    std::uint64_t since_force = 0;
    std::uint64_t next_force = 10;
    for (std::uint32_t i = 0; i < kLayoutOps; ++i) {
      if (!OneOp(i % kTenants)) continue;
      ++result_->updates;
      if (++since_force >= next_force) {
        ForceOp();
        since_force = 0;
        next_force = rng_.Between(8, 12);
      }
    }
    ForceOp();
    const double op_wall = WallSeconds() - start;
    Tracer::Get().SetEnabled(false);
    router_fs_->on_cross_rename = nullptr;

    double busiest = 0;
    double total = 0;
    for (std::uint32_t v = 0; v < kVolumes; ++v) {
      const double elapsed =
          static_cast<double>(volumes_[v]->clock.now()) - clock0[v];
      busiest = std::max(busiest, elapsed);
      total += elapsed;
      if (traced_) {
        AddDelta(&result_->counters, Snapshot(*volumes_[v]), begin[v]);
      }
    }
    // The slowest volume bounds the pass: volumes are separate machines.
    result_->op_vsec += busiest / 1e6;
    const double cross_renames = static_cast<double>(
        router_->Metrics().Snapshot().CounterValue("router.cross_renames"));
    result_->shape["cross_renames"] += cross_renames;
    if (traced_) {
      result_->extra.emplace_back("volume.busiest_vshare",
                                  busiest / (total / kVolumes));
      result_->extra.emplace_back("fanout.cross_rename_forces", cross_forces_);
      result_->extra.emplace_back("fanout.cross_renames", cross_renames);
    }

    Verify("before crash");
    // Power fails on every volume; each recovers on its own.
    router_.reset();
    router_fs_.reset();
    Tracer::Get().SetEnabled(traced_);
    bool mounted_all = true;
    for (auto& volume : volumes_) {
      cedar::Status mounted;
      {
        Scope root("client.recover", Layer::kClient, vclock_);
        mounted = volume->CrashAndRecover(result_);
      }
      result_->Check(mounted.ok(), "mount after crash: " + mounted.ToString());
      mounted_all = mounted_all && mounted.ok();
    }
    Tracer::Get().SetEnabled(false);
    if (!mounted_all) return op_wall;
    MakeRouter();
    Verify("after recovery");
    double nt_pages = 0;
    for (auto& volume : volumes_) {
      auto fsck = volume->fsd->Fsck();
      result_->Check(fsck.ok() && fsck->Clean(),
                     "fsck: " + (fsck.ok() ? fsck->Summary()
                                           : fsck.status().ToString()));
      if (fsck.ok()) nt_pages += static_cast<double>(fsck->nt_pages_checked);
    }
    result_->shape["nt_pages_used"] = nt_pages;
    return op_wall;
  }

 private:
  void MakeRouter() {
    std::vector<cedar::fs::FileSystem*> mounted;
    for (auto& volume : volumes_) mounted.push_back(volume->fs.get());
    router_.emplace(std::move(mounted));
    router_fs_ = std::make_unique<TracedFs>(&*router_, nullptr, Layer::kVolume,
                                            vclock_);
  }

  void Populate() {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      for (std::uint32_t r = 0; r < kFilesPerTenant; ++r) {
        const std::string name = FanoutName(t, r, false);
        const auto size = static_cast<std::uint32_t>(rng_.Between(256, 4096));
        const std::uint64_t seed = rng_.Next();
        buf_.resize(size);
        FillContents(seed, buf_);
        result_->Check(router_fs_->CreateFile(name, buf_).ok() &&
                           router_fs_->SetKeep(name, 1).ok(),
                       "populate " + name);
        model_.Create(name, seed, size);
        model_.SetKeep(name, 1);
      }
    }
    result_->Check(router_fs_->Force().ok(), "setup force");
  }

  // Returns true when the op was an update.
  bool OneOp(std::uint32_t tenant) {
    ClientOp op(kClientOpSpan, vclock_);
    std::string name;
    std::string alias;
    std::uint64_t pick = 0;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      const std::uint32_t rank = zipf_.Sample(rng_);
      pick = rng_.Below(100);
      name = FanoutName(tenant, rank, false);
      alias = FanoutName(tenant, rank, true);
      if (model_.Highest(name) == nullptr) std::swap(name, alias);
    }
    TracedFs& fs = *router_fs_;
    const Version* expected = model_.Highest(name);
    const auto owner = VolumeRouter::VolumeOf(name, kVolumes);
    if (pick < 15) {
      op.StartCalls();
      const cedar::Status status = fs.Rename(name, alias);
      const cedar::Status tick = volumes_[owner]->fs->Tick();
      op.EndCalls(result_);
      result_->Check(status.ok() && tick.ok(), "rename " + name + " -> " +
                                                   alias + ": " +
                                                   status.ToString());
      model_.Rename(name, alias);
      return true;
    }
    if (pick < 40) {
      op.StartCalls();
      const cedar::Status status = fs.Touch(name);
      const cedar::Status tick = volumes_[owner]->fs->Tick();
      op.EndCalls(result_);
      result_->Check(status.ok() && tick.ok(),
                     "touch " + name + ": " + status.ToString());
      return true;
    }
    if (pick < 65) {
      const bool rewrite = pick >= 60;
      std::uint32_t size = expected->size;
      std::uint64_t seed = 0;
      {
        Scope gen("workload.gen", Layer::kWorkload, vclock_);
        if (!rewrite) {
          size = static_cast<std::uint32_t>(rng_.Between(256, 4096));
        }
        seed = rng_.Next();
        buf_.resize(size);
        FillContents(seed, buf_);
      }
      op.StartCalls();
      cedar::Status status;
      if (rewrite) {
        auto handle = fs.Open(name);
        status = handle.status();
        if (handle.ok()) {
          status = fs.Write(handle.value(), 0, buf_);
          const cedar::Status close = fs.Close(handle.value());
          if (status.ok()) status = close;
        }
      } else {
        status = fs.CreateFile(name, buf_).status();
      }
      const cedar::Status tick = volumes_[owner]->fs->Tick();
      op.EndCalls(result_);
      result_->Check(status.ok() && tick.ok(),
                     (rewrite ? "rewrite " : "create ") + name + ": " +
                         status.ToString());
      if (rewrite) {
        model_.Overwrite(name, seed);
      } else {
        model_.Create(name, seed, size);
      }
      result_->user_bytes += size;
      return true;
    }
    op.StartCalls();
    auto handle = fs.Open(name);
    cedar::Status read;
    cedar::Status close;
    if (handle.ok()) {
      buf_.resize(handle->byte_size);
      read = fs.Read(handle.value(), 0, buf_);
      close = fs.Close(handle.value());
    }
    const cedar::Status tick = volumes_[owner]->fs->Tick();
    op.EndCalls(result_);
    Scope check("workload.check", Layer::kWorkload, vclock_);
    result_->Check(handle.ok() && read.ok() && close.ok() && tick.ok() &&
                       buf_.size() == expected->size &&
                       ContentsMatch(expected->seed, buf_),
                   "read " + name + ": " + handle.status().ToString() + " " +
                       read.ToString());
    return false;
  }

  void ForceOp() {
    ClientOp op(kClientOpSpan, vclock_);
    op.StartCalls();
    const cedar::Status status = router_fs_->Force();
    result_->force_vus.push_back(op.EndCalls(result_));
    result_->Check(status.ok(), "force: " + status.ToString());
  }

  // Every live name sits on exactly the volume its hash names, the merged
  // listing matches the model, and every file reads back exactly.
  void Verify(const std::string& when) {
    auto merged = router_->List("");
    result_->Check(merged.ok(), "router list " + when);
    if (merged.ok()) CheckListing(merged.value(), model_, "", result_);
    std::map<std::string, std::set<std::uint32_t>> homes;
    for (std::uint32_t v = 0; v < kVolumes; ++v) {
      auto part = volumes_[v]->fsd->List("");
      result_->Check(part.ok(), "volume list " + when);
      if (!part.ok()) continue;
      for (const cedar::fs::FileInfo& info : part.value()) {
        homes[info.name].insert(v);
      }
    }
    for (const auto& [name, on] : homes) {
      result_->Check(on.size() == 1 &&
                         *on.begin() == VolumeRouter::VolumeOf(name, kVolumes),
                     when + ": " + name + " is on " +
                         std::to_string(on.size()) +
                         " volumes or off its hash volume");
    }
    result_->Check(homes.size() == model_.names().size(),
                   when + ": " + std::to_string(homes.size()) +
                       " names on the volumes, model has " +
                       std::to_string(model_.names().size()));
    for (const auto& [name, versions] : model_.names()) {
      CheckFile(*router_, name, versions.back(), result_);
    }
  }

  Rng rng_;
  bool traced_;
  RunResult* result_;
  ZipfSampler zipf_;
  ClockSum vclock_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  std::optional<VolumeRouter> router_;
  std::unique_ptr<TracedFs> router_fs_;
  NameModel model_;
  std::vector<std::uint8_t> buf_;
  double cross_forces_ = 0;
};

}  // namespace

RunResult RunFanout(const Options& options) {
  RunResult result;
  if (!options.trace) {
    // Identical passes (same seed) until the time is spent: the virtual
    // numbers repeat exactly, the host numbers gain samples.
    const double start = WallSeconds();
    double last_pass = 0;
    do {
      const double pass_start = WallSeconds();
      const std::size_t first = result.op_wall_us.size();
      double wall_s = 0;
      for (std::uint64_t layout = 0; layout < kLayouts; ++layout) {
        FanoutLayout run(LayoutSeed(options.seed, layout), false, &result);
        run.Setup(false);
        wall_s += run.Run();
      }
      result.op_wall_s += wall_s;
      result.ClosePass(first, wall_s);
      last_pass = WallSeconds() - pass_start;
    } while (WallSeconds() - start + last_pass <= options.seconds);
  } else {
    // The first layout untraced, then traced.
    RunResult untraced;
    {
      FanoutLayout first(LayoutSeed(options.seed, 0), false, &untraced);
      first.Setup(false);
      const double untraced_wall = first.Run();
      result.untraced_wall_us_per_op =
          untraced_wall * 1e6 / static_cast<double>(untraced.ops);
    }
    result.setup_s = untraced.setup_s;
    result.MergeChecks(untraced);
    {
      FanoutLayout traced(LayoutSeed(options.seed, 0), true, &result);
      traced.Setup(true);
      result.op_wall_s = traced.Run();
    }
    result.traced_wall_us_per_op =
        result.op_wall_s * 1e6 / static_cast<double>(result.ops);
    result.spans = Tracer::Get().Collect();
  }
  if (result.shape.count("nt_pages_used") != 0) {
    result.extra.emplace_back("btree.nt_pages_used",
                              result.shape["nt_pages_used"]);
  }
  while (result.setup_s.size() < kSetups) {
    FanoutLayout layout(LayoutSeed(options.seed, 0), false, &result);
    layout.Setup(false);
  }
  return result;
}

}  // namespace perfbench
