// grow_large: one volume grows from empty past the name-table cache, with
// crashes. One client, inline Tick-driven group commit and no daemons, so a
// seed fixes every virtual-time number. The mix is 75% creates of small
// files (128..4000 bytes, the small half of section 5.6), 10% deletes and
// 15% whole-file reads of uniformly chosen live files, with a client
// Force() every ~100 ops. Ten seeded crash points, one in each tenth of the
// growth, each cut power, mount a fresh FSD and check the durability
// oracle before the run continues.

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/bench.h"
#include "src/model.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

namespace core = cedar::core;
using cedar::Rng;

constexpr std::uint32_t kTargetFiles = 16000;
constexpr int kCrashPoints = 10;
constexpr int kSetups = 3;
constexpr std::uint32_t kOracleSample = 300;  // byte checks per crash
constexpr std::uint32_t kFinalSample = 2000;  // byte checks at the end

cedar::sim::DiskGeometry GrowGeometry() {
  cedar::sim::DiskGeometry geometry;
  // 16k small files plus two 65,536-page name-table copies fill about two
  // thirds of 615 cylinders.
  geometry.cylinders = 615;
  return geometry;
}

core::FsdConfig GrowConfig() {
  core::FsdConfig config;
  config.nt_pages = 65536;
  // The name table passes 2,048 pages at about 6,500 files, so reads of
  // uniformly chosen files miss the cache for the last 60% of the growth.
  config.cache_frames = 2048;
  return config;
}

std::string GrowName(std::uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "g/d%02u/f%07llu",
                static_cast<unsigned>(id % 64),
                static_cast<unsigned long long>(id));
  return name;
}

struct FileRec {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::uint32_t size = 0;
};

class GrowPass {
 public:
  GrowPass(std::uint64_t seed, bool traced, RunResult* result)
      : rng_(seed), traced_(traced), result_(result) {}

  // Returns the host seconds spent in client ops (crash cycles excluded).
  double Run(bool trace_capable) {
    const double setup_start = WallSeconds();
    volume_ = std::make_unique<Volume>(GrowGeometry(), GrowConfig(),
                                       trace_capable);
    result_->setup_s.push_back(WallSeconds() - setup_start);
    vclock_.clocks = {&volume_->clock};

    // One crash point in the middle fifth of each tenth of the growth, so
    // the median mount sees about the same volume on every seed.
    std::vector<std::uint32_t> crash_at;
    for (int i = 0; i < kCrashPoints; ++i) {
      crash_at.push_back(static_cast<std::uint32_t>(
          kTargetFiles * (i + 0.4 + 0.2 * rng_.NextDouble()) / kCrashPoints));
    }
    Tracer::Get().SetEnabled(traced_);
    if (traced_) segments_.Start(*volume_);
    const double start = WallSeconds();
    double crash_wall = 0;
    std::size_t next_crash = 0;
    std::uint64_t since_force = 0;
    std::uint64_t next_force = 100;
    bool halfway = false;
    while (live_.size() < kTargetFiles) {
      OneOp();
      if (++since_force >= next_force) {
        ForceOp();
        since_force = 0;
        next_force = rng_.Between(80, 120);
      }
      if (traced_ && result_->ops % 128 == 0) {
        auto window = volume_->fsd->RecoveryWindow();
        if (window.ok()) {
          live_log_kb_max_ = std::max(
              live_log_kb_max_, static_cast<double>(window.value()) / 1024.0);
        }
      }
      if (traced_ && !halfway && live_.size() >= kTargetFiles / 2) {
        halfway = true;
        half_counters_ = segments_.Current(*volume_);
        half_ops_ = result_->ops;
      }
      if (next_crash < crash_at.size() &&
          live_.size() >= crash_at[next_crash]) {
        ++next_crash;
        const double crash_start = WallSeconds();
        Crash();
        crash_wall += WallSeconds() - crash_start;
      }
    }
    ForceOp();
    const double op_wall = WallSeconds() - start - crash_wall;
    if (traced_) segments_.Stop(*volume_);
    Tracer::Get().SetEnabled(false);
    FinalCheck();
    return op_wall;
  }

  const Counters& counters() const { return segments_.sum; }
  const Counters& half_counters() const { return half_counters_; }
  std::uint64_t half_ops() const { return half_ops_; }
  double live_log_kb_max() const { return live_log_kb_max_; }
  void Release() { volume_.reset(); }

 private:
  void OneOp() {
    ClientOp op(kClientOpSpan, vclock_);
    std::uint64_t pick = 0;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      pick = rng_.Below(100);
    }
    if (pick < 75 || live_.empty()) {
      CreateOp(op);
    } else if (pick < 85) {
      DeleteOp(op);
    } else {
      ReadOp(op);
    }
  }

  void CreateOp(ClientOp& op) {
    FileRec rec;
    std::string name;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      rec.id = next_id_++;
      rec.size = static_cast<std::uint32_t>(rng_.Between(128, 4000));
      rec.seed = rng_.Next();
      name = GrowName(rec.id);
      buf_.resize(rec.size);
      FillContents(rec.seed, buf_);
    }
    op.StartCalls();
    cedar::Status status = volume_->fs->CreateFile(name, buf_).status();
    const cedar::Status tick = volume_->fs->Tick();
    op.EndCalls(result_);
    result_->Check(status.ok() && tick.ok(),
                   "create " + name + ": " + status.ToString() + " / " +
                       tick.ToString());
    index_[rec.id] = live_.size();
    live_.push_back(rec);
    uncertain_[rec.id] = rec;
    ++result_->updates;
    result_->user_bytes += rec.size;
  }

  void DeleteOp(ClientOp& op) {
    FileRec rec;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      rec = live_[rng_.Below(live_.size())];
    }
    const std::string name = GrowName(rec.id);
    op.StartCalls();
    const cedar::Status status = volume_->fs->DeleteFile(name);
    const cedar::Status tick = volume_->fs->Tick();
    op.EndCalls(result_);
    result_->Check(status.ok() && tick.ok(),
                   "delete " + name + ": " + status.ToString());
    RemoveLive(rec.id);
    uncertain_[rec.id] = rec;
    ++result_->updates;
  }

  void ReadOp(ClientOp& op) {
    FileRec rec;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      rec = live_[rng_.Below(live_.size())];
    }
    const std::string name = GrowName(rec.id);
    TracedFs& fs = *volume_->fs;
    op.StartCalls();
    auto handle = fs.Open(name);
    cedar::Status read;
    cedar::Status close;
    if (handle.ok()) {
      buf_.resize(handle->byte_size);
      read = fs.Read(handle.value(), 0, buf_);
      close = fs.Close(handle.value());
    }
    const cedar::Status tick = fs.Tick();
    op.EndCalls(result_);
    Scope check("workload.check", Layer::kWorkload, vclock_);
    result_->Check(handle.ok() && read.ok() && close.ok() && tick.ok() &&
                       buf_.size() == rec.size &&
                       ContentsMatch(rec.seed, buf_),
                   "read " + name + ": " + handle.status().ToString() + " " +
                       read.ToString());
  }

  void ForceOp() {
    ClientOp op(kClientOpSpan, vclock_);
    op.StartCalls();
    const cedar::Status status = volume_->fs->Force();
    result_->force_vus.push_back(op.EndCalls(result_));
    result_->Check(status.ok(), "force: " + status.ToString());
    // Everything before a completed force is durable.
    uncertain_.clear();
  }

  void RemoveLive(std::uint64_t id) {
    auto it = index_.find(id);
    const std::size_t at = it->second;
    index_.erase(it);
    if (at + 1 != live_.size()) {
      live_[at] = live_.back();
      index_[live_[at].id] = at;
    }
    live_.pop_back();
  }

  void Crash() {
    if (traced_) segments_.Stop(*volume_);
    cedar::Status mounted;
    {
      Scope root("client.recover", Layer::kClient, vclock_);
      mounted = volume_->CrashAndRecover(result_);
    }
    result_->Check(mounted.ok(), "mount after crash: " + mounted.ToString());
    Tracer::Get().SetEnabled(false);
    if (mounted.ok()) Oracle();
    Tracer::Get().SetEnabled(traced_);
    if (traced_) segments_.Start(*volume_);
  }

  // Durability oracle. Files acknowledged by the last completed Force()
  // must be present with their exact bytes; files created or deleted after
  // it may or may not have reached the log, but a present one is exact.
  // The model then follows what recovery kept.
  void Oracle() {
    auto listing = volume_->fsd->List("g/");
    result_->Check(listing.ok(), "oracle list: " + listing.status().ToString());
    if (!listing.ok()) return;
    std::unordered_map<std::string, std::uint64_t> present;
    for (const cedar::fs::FileInfo& info : listing.value()) {
      present[info.name] = info.byte_size;
    }
    for (const FileRec& rec : live_) {
      if (uncertain_.count(rec.id) != 0) continue;
      auto it = present.find(GrowName(rec.id));
      result_->Check(it != present.end() && it->second == rec.size,
                     "oracle: forced file " + GrowName(rec.id) +
                         " lost or resized");
    }
    for (const auto& [id, rec] : uncertain_) {
      const std::string name = GrowName(id);
      const bool is_live = index_.count(id) != 0;
      if (present.count(name) != 0) {
        CheckFile(*volume_->fsd, name, Version{rec.seed, rec.size, 0},
                  result_);
        if (!is_live) {
          index_[id] = live_.size();
          live_.push_back(rec);
        }
      } else if (is_live) {
        RemoveLive(id);
      }
    }
    uncertain_.clear();
    result_->Check(present.size() == live_.size(),
                   "oracle: " + std::to_string(present.size()) +
                       " files after recovery, model has " +
                       std::to_string(live_.size()));
    for (std::uint32_t i = 0; i < kOracleSample && !live_.empty(); ++i) {
      const FileRec& rec = live_[rng_.Below(live_.size())];
      CheckFile(*volume_->fsd, GrowName(rec.id),
                Version{rec.seed, rec.size, 0}, result_);
    }
  }

  // After the last force: a seeded sample of files reads back exactly,
  // the listing holds every live file, and fsck is clean.
  void FinalCheck() {
    Oracle();
    for (std::uint32_t i = 0; i < kFinalSample; ++i) {
      const FileRec& rec = live_[rng_.Below(live_.size())];
      CheckFile(*volume_->fsd, GrowName(rec.id),
                Version{rec.seed, rec.size, 0}, result_);
    }
    auto fsck = volume_->fsd->Fsck();
    result_->Check(fsck.ok() && fsck->Clean(),
                   "fsck: " + (fsck.ok() ? fsck->Summary()
                                         : fsck.status().ToString()));
    if (fsck.ok()) {
      result_->shape["nt_pages_used"] =
          static_cast<double>(fsck->nt_pages_checked);
    }
    result_->shape["cache_frames"] =
        static_cast<double>(volume_->config.cache_frames);
    result_->shape["files"] = static_cast<double>(live_.size());
    result_->shape["free_share"] =
        static_cast<double>(volume_->fsd->FreeSectors()) /
        static_cast<double>(volume_->disk->geometry().TotalSectors());
  }

  Rng rng_;
  bool traced_;
  RunResult* result_;
  std::unique_ptr<Volume> volume_;
  ClockSum vclock_;
  std::vector<FileRec> live_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // id -> live_ slot
  std::unordered_map<std::uint64_t, FileRec> uncertain_;  // since last force
  std::uint64_t next_id_ = 0;
  std::vector<std::uint8_t> buf_;
  Segments segments_;
  Counters half_counters_;
  std::uint64_t half_ops_ = 0;
  double live_log_kb_max_ = 0;
};

}  // namespace

RunResult RunGrowLarge(const Options& options) {
  RunResult result;
  if (!options.trace) {
    // Identical passes (same seed) until the time is spent: the virtual
    // numbers repeat exactly, the host numbers gain samples.
    const double start = WallSeconds();
    double last_pass = 0;
    do {
      const double pass_start = WallSeconds();
      GrowPass pass(options.seed, false, &result);
      const std::size_t first = result.op_wall_us.size();
      const double wall_s = pass.Run(false);
      result.op_wall_s += wall_s;
      result.ClosePass(first, wall_s);
      pass.Release();
      last_pass = WallSeconds() - pass_start;
    } while (WallSeconds() - start + last_pass <= options.seconds);
  } else {
    RunResult untraced;
    GrowPass first(options.seed, false, &untraced);
    const double untraced_wall = first.Run(false);
    first.Release();
    result.untraced_wall_us_per_op =
        untraced_wall * 1e6 / static_cast<double>(untraced.ops);
    result.setup_s = untraced.setup_s;
    result.MergeChecks(untraced);

    GrowPass pass(options.seed, true, &result);
    result.op_wall_s = pass.Run(true);
    result.traced_wall_us_per_op =
        result.op_wall_s * 1e6 / static_cast<double>(result.ops);
    result.counters = pass.counters();
    result.extra.emplace_back("core.live_log_kb_max", pass.live_log_kb_max());
    const Counters& half = pass.half_counters();
    const double half_ops = static_cast<double>(pass.half_ops());
    const double nt_half = half.count("read.nt") ? half.at("read.nt") : 0.0;
    result.extra.emplace_back("cache.nt_reads_per_op.first_half",
                              half_ops > 0 ? nt_half / half_ops : 0.0);
    const double rest_ops = static_cast<double>(result.ops) - half_ops;
    result.extra.emplace_back(
        "cache.nt_reads_per_op.second_half",
        rest_ops > 0 ? (result.counters["read.nt"] - nt_half) / rest_ops
                     : 0.0);
    pass.Release();
    result.spans = Tracer::Get().Collect();
  }
  // The virtual clock of a single client advances only inside its ops.
  double vus = 0;
  for (double v : result.op_vus) vus += v;
  result.op_vsec = vus / 1e6;
  if (result.shape.count("nt_pages_used") != 0) {
    result.extra.emplace_back("btree.nt_pages_used",
                              result.shape["nt_pages_used"]);
  }
  while (result.setup_s.size() < kSetups) {
    const double start = WallSeconds();
    Volume volume(GrowGeometry(), GrowConfig(), false);
    result.setup_s.push_back(WallSeconds() - start);
  }
  return result;
}

}  // namespace perfbench
