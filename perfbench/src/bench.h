// Shared pieces of the three workloads: the volume rig, the content
// generator and oracle, counter snapshots, and the run's raw results.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/decorators.h"
#include "src/obs/trace.h"
#include "src/sim/disk.h"
#include "src/span.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Host wall clock in seconds / microseconds since an arbitrary epoch.
double WallSeconds();

// Deterministic file contents: `size` bytes derived from `seed`.
void FillContents(std::uint64_t seed, std::span<std::uint8_t> out);
bool ContentsMatch(std::uint64_t seed, std::span<const std::uint8_t> bytes);

// Additive counter snapshot of one volume (registry, Maintenance(),
// DiskStats, DiskTracer op-class aggregates, region sector counts, clock).
using Counters = std::map<std::string, double>;

// Raw results of one run, turned into metrics by the report.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> op_wall_us;           // per client op
  std::vector<double> op_vus;               // per client op, virtual
  std::vector<double> force_vus;            // per client Force(), virtual
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;                // mutating client ops
  std::uint64_t user_bytes = 0;             // bytes clients wrote
  double op_wall_s = 0;                     // host seconds of op phases
  double op_vsec = 0;                       // virtual seconds of op phases
  // Host-time figures of each pass (or phase), whose medians are reported:
  // a median over passes discounts a moment of host contention.
  std::vector<double> pass_wall_ops_per_s;
  std::vector<double> pass_wall_p50_us;
  std::vector<double> pass_wall_p99_us;
  std::vector<double> recovery_vs;
  std::vector<double> recovery_wall_ms;
  std::vector<double> recovery_pages;     // pages replayed per mount
  std::vector<double> recovery_disk_vms;  // fsd.mount disk time per mount

  std::uint64_t checks = 0;    // correctness checks made
  std::uint64_t failures = 0;  // failed ops + failed checks
  std::uint64_t misses = 0;    // expected kNotFound answers
  std::vector<std::string> failure_notes;

  // Traced runs: counter deltas over the traced phase, per-layer extras,
  // and the spans.
  Counters counters;
  std::vector<std::pair<std::string, double>> extra;  // name -> value
  std::vector<std::vector<Span>> spans;
  double untraced_wall_us_per_op = 0;
  double traced_wall_us_per_op = 0;

  // Shape facts for the benchmark's own tests.
  std::map<std::string, double> shape;

  void Fail(const std::string& note);
  void Check(bool ok, const std::string& note) {
    ++checks;
    if (!ok) Fail(note);
  }
  // Records the host-time figures of the ops from op_wall_us[first] on,
  // which took `wall_s` host seconds.
  void ClosePass(std::size_t first, double wall_s);
  // Adds another part's check counts, failures and failure notes.
  void MergeChecks(const RunResult& other);
  // Merges a client thread's results into this one.
  void Merge(RunResult&& other);
};

// One FSD volume: clock, simulated disk, its tracing decorator, the FSD
// and the core-layer decorator every client call goes through.
struct Volume {
  Volume(const cedar::sim::DiskGeometry& geometry,
         const cedar::core::FsdConfig& config, bool trace);
  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  // Cuts power, discards the FSD (joining its daemons), and mounts a fresh
  // one over the surviving image, recording the mount's virtual and host
  // time, pages replayed and disk time in `result`.
  cedar::Status CrashAndRecover(RunResult* result);

  cedar::core::FsdConfig config;
  cedar::sim::VirtualClock clock;
  std::unique_ptr<cedar::obs::DiskTracer> disk_tracer;  // trace runs only
  std::unique_ptr<cedar::sim::SimDisk> disk;
  std::unique_ptr<TracedDevice> device;
  std::unique_ptr<cedar::core::Fsd> fsd;
  std::unique_ptr<TracedFs> fs;

 private:
  void Attach();
};

Counters Snapshot(Volume& volume);
void AddDelta(Counters* sum, const Counters& end, const Counters& begin);

// Counter deltas over the op phases of one volume, excluding what runs
// between Stop and Start (crash recovery and oracle checks). A crash
// replaces the FSD and its registry, so each segment is taken against one
// FSD instance.
struct Segments {
  Counters sum;
  Counters begin;
  void Start(Volume& volume) { begin = Snapshot(volume); }
  void Stop(Volume& volume) { AddDelta(&sum, Snapshot(volume), begin); }
  Counters Current(Volume& volume) const {
    Counters now = sum;
    AddDelta(&now, Snapshot(volume), begin);
    return now;
  }
};

// Times one client op. The root span covers generation, the calls into the
// file system and the check of their answers; the latency samples cover
// only the calls (StartCalls .. EndCalls).
class ClientOp {
 public:
  ClientOp(const char* name, const ClockSum& vclock)
      : vclock_(vclock), root_(name, Layer::kClient, vclock) {}
  void StartCalls() {
    w0_ = WallNowNs();
    v0_ = vclock_();
  }
  // Records the op's latencies; returns its virtual duration in us.
  double EndCalls(RunResult* result) {
    const double vus = static_cast<double>(vclock_() - v0_);
    result->op_wall_us.push_back(static_cast<double>(WallNowNs() - w0_) /
                                 1e3);
    result->op_vus.push_back(vus);
    ++result->ops;
    return vus;
  }

 private:
  const ClockSum& vclock_;
  Scope root_;
  std::int64_t w0_ = 0;
  std::uint64_t v0_ = 0;
};

// Percentile (nearest rank) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

RunResult RunMetaHot(const Options& options);
RunResult RunGrowLarge(const Options& options);
RunResult RunFanout(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
