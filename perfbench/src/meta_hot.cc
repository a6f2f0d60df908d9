// meta_hot: a cache-resident metadata hot spot, the traffic of the paper's
// section 5.4. Four client threads, one tenant each, run a closed loop over
// a Zipf(1.0)-popular namespace of 2,000 names on one default-geometry
// volume with the commit and checkpoint daemons on. Every client forces the
// log every ~20 ops, so concurrent forces meet in group commit.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>

#include "src/bench.h"
#include "src/model.h"
#include "src/util/random.h"
#include "src/workload/zipf.h"

namespace perfbench {
namespace {

namespace core = cedar::core;
using cedar::Rng;
using cedar::workload::ZipfSampler;

constexpr int kTenants = 4;
constexpr std::uint32_t kNamesPerTenant = 500;
constexpr std::uint32_t kDirs = 25;  // 20 files per listed directory
constexpr int kSetups = 3;
constexpr int kCrashCycles = 9;
constexpr std::uint64_t kBurstOps = 250;  // per client, between crashes
constexpr double kPhaseSeconds = 2.0;

std::string MetaName(int tenant, std::uint32_t rank) {
  char name[32];
  std::snprintf(name, sizeof(name), "t%d/d%02u/f%03u", tenant, rank % kDirs,
                rank / kDirs);
  return name;
}

std::string DirPrefix(int tenant, std::uint32_t rank) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "t%d/d%02u/", tenant, rank % kDirs);
  return prefix;
}

core::FsdConfig MetaConfig() {
  core::FsdConfig config;
  config.commit.daemon = true;
  config.checkpoint.daemon = true;
  return config;
}

class MetaClient {
 public:
  MetaClient(int tenant, std::uint64_t seed, Volume* volume,
             const ZipfSampler* zipf)
      : tenant_(tenant),
        rng_(seed),
        volume_(volume),
        zipf_(zipf),
        vclock_{{&volume->clock}} {}

  // Creates every name of the tenant with keep=2.
  void Populate(RunResult* result) {
    for (std::uint32_t rank = 0; rank < kNamesPerTenant; ++rank) {
      const std::string name = MetaName(tenant_, rank);
      const auto size = static_cast<std::uint32_t>(rng_.Between(128, 4000));
      const std::uint64_t seed = rng_.Next();
      buf_.resize(size);
      FillContents(seed, buf_);
      result->Check(volume_->fs->CreateFile(name, buf_).ok() &&
                        volume_->fs->SetKeep(name, 2).ok(),
                    "populate " + name);
      model_.Create(name, seed, size);
      model_.SetKeep(name, 2);
    }
  }

  // Closed loop until the host clock passes `deadline` or `max_ops` ops
  // ran; ends with a Force() so every op is durable when it returns.
  void Run(double deadline, std::uint64_t max_ops, bool sample_log,
           RunResult* result) {
    for (std::uint64_t n = 0; n < max_ops && WallSeconds() < deadline; ++n) {
      OneOp(result);
      if (++since_force_ >= next_force_) {
        ForceOp(result);
        since_force_ = 0;
        next_force_ = static_cast<int>(rng_.Between(15, 25));
      }
      if (sample_log && n % 128 == 0) {
        auto window = volume_->fsd->RecoveryWindow();
        if (window.ok()) {
          live_log_kb_max_ =
              std::max(live_log_kb_max_,
                       static_cast<double>(window.value()) / 1024.0);
        }
      }
    }
    ForceOp(result);
  }

  // Every name's highest version, its bytes, and the tenant's listing.
  void Verify(RunResult* result) {
    char prefix[8];
    std::snprintf(prefix, sizeof(prefix), "t%d/", tenant_);
    auto listing = volume_->fsd->List(prefix);
    result->Check(listing.ok(), std::string("list ") + prefix);
    if (listing.ok()) CheckListing(listing.value(), model_, prefix, result);
    for (const auto& [name, versions] : model_.names()) {
      CheckFile(*volume_->fsd, name, versions.back(), result);
    }
  }

  double live_log_kb_max() const { return live_log_kb_max_; }

 private:
  void OneOp(RunResult* result) {
    ClientOp op(kClientOpSpan, vclock_);
    std::uint32_t rank = 0;
    std::uint64_t pick = 0;
    std::string name;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      rank = zipf_->Sample(rng_);
      pick = rng_.Below(100);
      name = MetaName(tenant_, rank);
    }
    if (pick < 30) {
      ReadOp(op, name, result);
    } else if (pick < 45) {
      StatOp(op, name, result);
    } else if (pick < 60) {
      ListOp(op, DirPrefix(tenant_, rank), result);
    } else if (pick < 75) {
      TouchOp(op, name, result);
    } else if (pick < 87) {
      CreateOp(op, name, result);
    } else if (pick < 91) {
      DeleteOp(op, name, result);
    } else if (pick < 95) {
      RenameOp(op, name, result);
    } else {
      SetKeepOp(op, name, result);
    }
  }

  void ReadOp(ClientOp& op, const std::string& name, RunResult* result) {
    const Version* expected = model_.Highest(name);
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
    op.EndCalls(result);
    Scope check("workload.check", Layer::kWorkload, vclock_);
    if (!ExpectFound(handle.status(), expected != nullptr, "open", name,
                     result) ||
        expected == nullptr) {
      return;
    }
    result->Check(read.ok() && close.ok() && buf_.size() == expected->size &&
                      ContentsMatch(expected->seed, buf_),
                  "read " + name + ": wrong size or bytes");
  }

  void StatOp(ClientOp& op, const std::string& name, RunResult* result) {
    const Version* expected = model_.Highest(name);
    op.StartCalls();
    auto info = volume_->fs->Stat(name);
    op.EndCalls(result);
    Scope check("workload.check", Layer::kWorkload, vclock_);
    if (ExpectFound(info.status(), expected != nullptr, "stat", name,
                    result) &&
        expected != nullptr) {
      result->Check(info->byte_size == expected->size,
                    "stat " + name + ": wrong size");
    }
  }

  void ListOp(ClientOp& op, const std::string& prefix, RunResult* result) {
    op.StartCalls();
    auto listing = volume_->fs->List(prefix);
    op.EndCalls(result);
    Scope check("workload.check", Layer::kWorkload, vclock_);
    result->Check(listing.ok(), "list " + prefix);
    if (listing.ok()) CheckListing(listing.value(), model_, prefix, result);
  }

  void TouchOp(ClientOp& op, const std::string& name, RunResult* result) {
    const bool live = model_.Highest(name) != nullptr;
    op.StartCalls();
    const cedar::Status status = volume_->fs->Touch(name);
    op.EndCalls(result);
    if (ExpectFound(status, live, "touch", name, result)) ++result->updates;
  }

  void CreateOp(ClientOp& op, const std::string& name, RunResult* result) {
    const bool live = model_.Highest(name) != nullptr;
    std::uint32_t size = 0;
    std::uint64_t seed = 0;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      size = static_cast<std::uint32_t>(rng_.Between(128, 4000));
      seed = rng_.Next();
      buf_.resize(size);
      FillContents(seed, buf_);
    }
    op.StartCalls();
    cedar::Status status = volume_->fs->CreateFile(name, buf_).status();
    // A name created afresh starts with keep=0; give it keep=2 like the rest.
    if (status.ok() && !live) status = volume_->fs->SetKeep(name, 2);
    op.EndCalls(result);
    result->Check(status.ok(), "create " + name + ": " + status.ToString());
    model_.Create(name, seed, size);
    if (!live) model_.SetKeep(name, 2);
    ++result->updates;
    result->user_bytes += size;
  }

  void DeleteOp(ClientOp& op, const std::string& name, RunResult* result) {
    const bool live = model_.Highest(name) != nullptr;
    op.StartCalls();
    const cedar::Status status = volume_->fs->DeleteFile(name);
    op.EndCalls(result);
    if (ExpectFound(status, live, "delete", name, result)) {
      model_.Delete(name);
      ++result->updates;
    }
  }

  // Same-volume rename onto a name the tenant does not use at the moment.
  void RenameOp(ClientOp& op, const std::string& from, RunResult* result) {
    std::string to;
    {
      Scope gen("workload.gen", Layer::kWorkload, vclock_);
      for (int tries = 0; tries < 8 && to.empty(); ++tries) {
        std::string candidate = MetaName(
            tenant_, static_cast<std::uint32_t>(rng_.Below(kNamesPerTenant)));
        if (model_.Highest(candidate) == nullptr) to = std::move(candidate);
      }
    }
    if (to.empty() || model_.Highest(from) == nullptr) {
      TouchOp(op, from, result);
      return;
    }
    op.StartCalls();
    const cedar::Status status = volume_->fs->Rename(from, to);
    op.EndCalls(result);
    result->Check(status.ok(),
                  "rename " + from + " -> " + to + ": " + status.ToString());
    model_.Rename(from, to);
    ++result->updates;
  }

  void SetKeepOp(ClientOp& op, const std::string& name, RunResult* result) {
    const bool live = model_.Highest(name) != nullptr;
    const auto keep = static_cast<std::uint16_t>(1 + rng_.Below(2));
    op.StartCalls();
    const cedar::Status status = volume_->fs->SetKeep(name, keep);
    op.EndCalls(result);
    if (ExpectFound(status, live, "setkeep", name, result)) {
      model_.SetKeep(name, keep);
      ++result->updates;
    }
  }

  void ForceOp(RunResult* result) {
    ClientOp op(kClientOpSpan, vclock_);
    op.StartCalls();
    const cedar::Status status = volume_->fs->Force();
    result->force_vus.push_back(op.EndCalls(result));
    result->Check(status.ok(), "force: " + status.ToString());
  }

  int tenant_;
  Rng rng_;
  Volume* volume_;
  const ZipfSampler* zipf_;
  ClockSum vclock_;
  NameModel model_;
  std::vector<std::uint8_t> buf_;
  int since_force_ = 0;
  int next_force_ = 20;
  double live_log_kb_max_ = 0;
};

struct Phase {
  double wall_s = 0;
  double vsec = 0;
  std::uint64_t ops = 0;
};

// Runs all clients in parallel for `seconds` and merges their samples.
Phase RunPhase(std::vector<std::unique_ptr<MetaClient>>& clients,
               Volume& volume, double seconds, bool sample_log,
               RunResult* result) {
  std::vector<RunResult> per_client(clients.size());
  const double start = WallSeconds();
  const std::uint64_t v0 = volume.clock.now();
  const double deadline = start + seconds;
  {
    std::vector<std::jthread> threads;
    for (std::size_t k = 0; k < clients.size(); ++k) {
      threads.emplace_back([&, k] {
        clients[k]->Run(deadline, std::numeric_limits<std::uint64_t>::max(),
                        sample_log && k == 0, &per_client[k]);
      });
    }
  }
  Phase phase;
  phase.wall_s = WallSeconds() - start;
  phase.vsec = static_cast<double>(volume.clock.now() - v0) / 1e6;
  for (RunResult& part : per_client) {
    phase.ops += part.ops;
    result->Merge(std::move(part));
  }
  result->op_wall_s += phase.wall_s;
  result->op_vsec += phase.vsec;
  return phase;
}

}  // namespace

RunResult RunMetaHot(const Options& options) {
  RunResult result;
  const ZipfSampler zipf(kNamesPerTenant, 1.0);
  std::unique_ptr<Volume> volume;
  std::vector<std::unique_ptr<MetaClient>> clients;
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();
    volume.reset();
    const double start = WallSeconds();
    volume = std::make_unique<Volume>(cedar::sim::DiskGeometry{}, MetaConfig(),
                                      options.trace);
    for (int k = 0; k < kTenants; ++k) {
      clients.push_back(std::make_unique<MetaClient>(
          k, options.seed * 1000003u + static_cast<std::uint64_t>(k),
          volume.get(), &zipf));
      clients.back()->Populate(&result);
    }
    result.Check(volume->fs->Force().ok(), "setup force");
    result.setup_s.push_back(WallSeconds() - start);
  }

  if (!options.trace) {
    // Consecutive phases of about two seconds; host-time figures are the
    // median over phases.
    const int phases =
        std::max(1, static_cast<int>(options.seconds / kPhaseSeconds + 0.5));
    for (int p = 0; p < phases; ++p) {
      const std::size_t first = result.op_wall_us.size();
      const Phase phase = RunPhase(clients, *volume, options.seconds / phases,
                                   false, &result);
      result.ClosePass(first, phase.wall_s);
    }
  } else {
    // Half the time untraced, half traced: the difference in host time per
    // op is the tracing overhead.
    RunResult untraced;
    const Phase before =
        RunPhase(clients, *volume, options.seconds / 2, false, &untraced);
    result.MergeChecks(untraced);
    result.untraced_wall_us_per_op =
        before.wall_s * 1e6 / static_cast<double>(before.ops);
    const Counters begin = Snapshot(*volume);
    Tracer::Get().SetEnabled(true);
    const Phase phase =
        RunPhase(clients, *volume, options.seconds / 2, true, &result);
    Tracer::Get().SetEnabled(false);
    AddDelta(&result.counters, Snapshot(*volume), begin);
    result.traced_wall_us_per_op =
        phase.wall_s * 1e6 / static_cast<double>(phase.ops);
    result.extra.emplace_back("core.live_log_kb_max",
                              clients[0]->live_log_kb_max());
  }

  // Crash and recover: every op was forced, so after each mount every name
  // must hold exactly the model's versions and bytes.
  for (int cycle = 0; cycle < kCrashCycles; ++cycle) {
    if (cycle > 0) {
      RunResult burst;
      for (auto& client : clients) {
        client->Run(std::numeric_limits<double>::infinity(), kBurstOps, false,
                    &burst);
      }
      result.MergeChecks(burst);
    }
    cedar::Status mounted;
    {
      Tracer::Get().SetEnabled(options.trace);
      const ClockSum vclock{{&volume->clock}};
      Scope root("client.recover", Layer::kClient, vclock);
      mounted = volume->CrashAndRecover(&result);
    }
    Tracer::Get().SetEnabled(false);
    result.Check(mounted.ok(), "mount after crash: " + mounted.ToString());
    if (!mounted.ok()) break;
    for (auto& client : clients) client->Verify(&result);
  }

  auto fsck = volume->fsd->Fsck();
  result.Check(fsck.ok() && fsck->Clean(),
               "fsck: " + (fsck.ok() ? fsck->Summary()
                                     : fsck.status().ToString()));
  if (fsck.ok()) {
    result.extra.emplace_back("btree.nt_pages_used",
                              static_cast<double>(fsck->nt_pages_checked));
    result.shape["nt_pages_used"] =
        static_cast<double>(fsck->nt_pages_checked);
  }
  result.shape["cache_frames"] =
      static_cast<double>(volume->config.cache_frames);
  clients.clear();
  volume.reset();  // joins the daemons before their spans are collected
  if (options.trace) result.spans = Tracer::Get().Collect();
  return result;
}

}  // namespace perfbench
