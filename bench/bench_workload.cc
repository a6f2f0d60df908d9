// Trace-driven production workload bench: record a multi-tenant Zipf
// workload from a live FSD through RecordingFs, round-trip it through the
// CEDWRK01 binary format, and replay it turnstile at 1/4/8 threads.
//
// Turnstile replay drives an identical disk request stream at every thread
// count, so the per-thread-count numbers are exact constants of the code —
// these are the gated metrics BENCH_workload.json feeds the CI perf gate.
// A free-running 8-thread replay with a DiskTracer attached rides along as
// informational context: per-tenant disk-time attribution via root scopes.
//
// --gate-selftest proves the gate can fire: it compares a deliberately
// CPU-slowed run against a normal one with the same comparison code CI
// uses (obs::CompareBenchReports) and exits nonzero unless the slowdown is
// flagged as a REGRESSION, identical runs PASS, and a tampered schema or
// config digest is refused.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/fsd.h"
#include "src/obs/benchcmp.h"
#include "src/obs/trace.h"
#include "src/util/random.h"
#include "src/workload/recorder.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"
#include "src/workload/zipf.h"

namespace cedar::bench {
namespace {

struct WorkloadShape {
  std::uint32_t ops = 6000;
  std::uint32_t files_per_tenant = 200;
  std::uint32_t tenants = 3;
  double zipf_s = 1.0;
  std::uint64_t seed = 42;
};

WorkloadShape SmokeShape() {
  WorkloadShape shape;
  shape.ops = 360;
  shape.files_per_tenant = 40;
  return shape;
}

// The CPU-scale knob exists for the gate selftest: it models running the
// same workload on a slower machine (or a CPU regression) without changing
// the workload shape, so the config digest — and therefore comparability —
// is preserved.
cedar::core::FsdConfig BenchConfig(double cpu_scale) {
  cedar::core::FsdConfig config;
  config.cpu.per_op =
      static_cast<std::uint64_t>(config.cpu.per_op * cpu_scale);
  config.cpu.per_sector_io =
      static_cast<std::uint64_t>(config.cpu.per_sector_io * cpu_scale);
  config.cpu.per_data_sector =
      static_cast<std::uint64_t>(config.cpu.per_data_sector * cpu_scale);
  config.cpu.per_list_entry =
      static_cast<std::uint64_t>(config.cpu.per_list_entry * cpu_scale);
  return config;
}

// Records the 3-tenant Zipf workload against a live FSD wrapped in
// RecordingFs. The op stream is pure Rng — independent of timing — so two
// recordings with the same shape capture the same trace no matter how fast
// the machine underneath runs.
std::vector<cedar::workload::TraceEntry> RecordWorkload(
    const WorkloadShape& shape, double cpu_scale) {
  using cedar::workload::RecordingFs;
  using cedar::workload::ScopedTenant;
  Rig rig;
  cedar::core::Fsd fsd(&rig.disk, BenchConfig(cpu_scale));
  CEDAR_CHECK_OK(fsd.Format());
  RecordingFs rec(&fsd, &rig.clock);

  Rng rng(shape.seed);
  cedar::workload::ZipfSampler zipf(shape.files_per_tenant, shape.zipf_s);
  std::vector<std::uint8_t> payload;
  for (std::uint32_t i = 0; i < shape.ops; ++i) {
    const auto tenant = static_cast<std::uint16_t>(i % shape.tenants);
    ScopedTenant scope(tenant);
    const std::uint32_t rank = zipf.Sample(rng);
    const std::string name = cedar::workload::TenantPrefix(tenant) + "f" +
                             std::to_string(rank) + ".db";
    switch (rng.Below(8)) {
      case 0:
      case 1: {  // (re)create: a fresh version with fresh contents
        payload.resize(rng.Between(256, 4096));
        for (auto& b : payload) {
          b = static_cast<std::uint8_t>(rng.Next());
        }
        CEDAR_CHECK_OK(rec.CreateFile(name, payload).status());
        break;
      }
      case 2:
      case 3:
      case 4: {  // read the hot range of the file
        auto handle = rec.Open(name);
        if (handle.ok() && handle.value().byte_size > 0) {
          payload.resize(std::min<std::uint64_t>(
              handle.value().byte_size, 4096));
          CEDAR_CHECK_OK(rec.Read(handle.value(), 0, payload));
          CEDAR_CHECK_OK(rec.Close(handle.value()));
        }
        break;
      }
      case 5: {  // overwrite the file's head in place
        auto handle = rec.Open(name);
        if (handle.ok() && handle.value().byte_size > 0) {
          payload.resize(std::min<std::uint64_t>(
              handle.value().byte_size, 512));
          for (auto& b : payload) {
            b = static_cast<std::uint8_t>(rng.Next());
          }
          CEDAR_CHECK_OK(rec.Write(handle.value(), 0, payload));
          CEDAR_CHECK_OK(rec.Close(handle.value()));
        }
        break;
      }
      case 6:
        (void)rec.Touch(name);  // kNotFound before first create: recorded
        break;
      default:
        if (rng.Chance(0.25)) {
          (void)rec.DeleteFile(name);
        } else {
          (void)rec.Touch(name);
        }
        break;
    }
    // Think time: lets the group-commit deadline fire as it would under a
    // live load; the recorder stamps each op's virtual timestamp.
    rig.clock.Advance(rng.Between(1, 15) * cedar::sim::kMillisecond);
    CEDAR_CHECK_OK(fsd.Tick());
  }
  CEDAR_CHECK_OK(rec.Force());
  std::vector<cedar::workload::TraceEntry> trace = rec.Trace();
  CEDAR_CHECK_OK(fsd.Shutdown());

  // Round-trip through the CEDWRK01 binary format: what the bench replays
  // is what a trace file on disk would deliver.
  const std::vector<std::uint8_t> bytes =
      cedar::workload::SerializeTraceBinary(trace);
  auto reloaded = cedar::workload::ParseTraceBinary(bytes);
  CEDAR_CHECK_OK(reloaded.status());
  CEDAR_CHECK(reloaded.value().size() == trace.size());
  return std::move(reloaded).value();
}

struct ReplayPoint {
  int threads = 0;
  std::uint64_t ops = 0;
  std::uint64_t not_found = 0;
  std::uint64_t forces = 0;
  std::uint64_t virtual_us = 0;
  double ops_per_vsec = 0;
  double forces_per_op = 0;
  cedar::sim::DiskStats disk;
  std::vector<cedar::workload::ReplayStats> per_tenant;
  cedar::obs::MetricsSnapshot metrics;
};

ReplayPoint RunReplay(const std::vector<cedar::workload::TraceEntry>& trace,
                      int threads, double cpu_scale, bool free_run,
                      cedar::obs::DiskTracer* tracer) {
  Rig rig;
  cedar::core::Fsd fsd(&rig.disk, BenchConfig(cpu_scale));
  CEDAR_CHECK_OK(fsd.Format());
  if (tracer != nullptr) {
    rig.disk.set_tracer(tracer);
  }
  rig.disk.ResetStats();
  const cedar::sim::Micros v0 = rig.clock.now();

  cedar::workload::ReplayConfig config;
  config.threads = threads;
  config.mode = free_run ? cedar::workload::ReplayMode::kFreeRun
                         : cedar::workload::ReplayMode::kTurnstile;
  auto result = cedar::workload::ReplayTraceMulti(
      &fsd, trace, config,
      [&](cedar::sim::Micros think) {
        rig.clock.Advance(think);
        return fsd.Tick();
      },
      tracer);
  CEDAR_CHECK_OK(result.status());

  ReplayPoint point;
  point.threads = threads;
  point.ops = result.value().totals.ops;
  point.not_found = result.value().totals.not_found;
  point.per_tenant = result.value().per_tenant;
  point.forces = CounterValue(fsd.Metrics(), "fsd.forces");
  point.virtual_us = rig.clock.now() - v0;
  point.disk = rig.disk.stats();
  point.metrics = fsd.Metrics().Snapshot();
  point.ops_per_vsec =
      point.virtual_us == 0
          ? 0
          : static_cast<double>(point.ops) * 1e6 /
                static_cast<double>(point.virtual_us);
  point.forces_per_op =
      point.ops == 0
          ? 0
          : static_cast<double>(point.forces) / static_cast<double>(point.ops);
  CEDAR_CHECK_OK(fsd.Shutdown());
  if (tracer != nullptr) {
    rig.disk.set_tracer(nullptr);
  }
  return point;
}

void AddLatencyInfo(BenchReport& report, const ReplayPoint& point,
                    const char* op) {
  const auto* hist =
      point.metrics.FindHistogram(std::string("op.fsd.") + op + ".us");
  if (hist == nullptr || hist->count == 0) {
    return;
  }
  // Log2-bucket resolution: trend context only, never gated.
  report.AddInfo(std::string("p50_") + op + "_us",
                 static_cast<double>(hist->Percentile(0.50)));
  report.AddInfo(std::string("p99_") + op + "_us",
                 static_cast<double>(hist->Percentile(0.99)));
}

BenchReport RunWorkloadBench(const WorkloadShape& shape, double cpu_scale,
                             bool smoke, const char* trace_out) {
  std::printf("Recording %u ops, %u tenants, Zipf(s=%.2f) over %u files "
              "per tenant...\n",
              shape.ops, shape.tenants, shape.zipf_s,
              shape.files_per_tenant);
  const std::vector<cedar::workload::TraceEntry> trace =
      RecordWorkload(shape, cpu_scale);
  std::printf("recorded %zu trace entries\n", trace.size());
  if (trace_out != nullptr) {
    CEDAR_CHECK_OK(cedar::workload::SaveTraceBinary(trace_out, trace));
    std::printf("wrote trace %s\n", trace_out);
  }

  BenchReport report("workload");
  report.SetConfig("ops", shape.ops);
  report.SetConfig("files_per_tenant", shape.files_per_tenant);
  report.SetConfig("tenants", shape.tenants);
  report.SetConfig("zipf_s", shape.zipf_s);
  report.SetConfig("seed", static_cast<double>(shape.seed));
  report.SetConfig("smoke", smoke ? 1.0 : 0.0);
  report.SetConfig("threads", "1,4,8");
  report.SetConfig("pacing", "closed-loop");
  report.AddInfo("cpu_scale", cpu_scale);
  report.AddInfo("trace_entries", static_cast<double>(trace.size()));

  std::printf("\nTurnstile replay (deterministic; the gated metrics)\n");
  std::printf("%8s %8s %10s %12s %12s %10s %10s %10s\n", "threads", "ops",
              "misses", "ops/vsec", "forces/op", "seek ms", "rot ms",
              "xfer ms");
  char key[64];
  std::vector<ReplayPoint> points;
  for (int threads : {1, 4, 8}) {
    points.push_back(
        RunReplay(trace, threads, cpu_scale, /*free_run=*/false, nullptr));
    const ReplayPoint& p = points.back();
    std::printf("%8d %8llu %10llu %12.1f %12.4f %10.1f %10.1f %10.1f\n",
                p.threads, (unsigned long long)p.ops,
                (unsigned long long)p.not_found, p.ops_per_vsec,
                p.forces_per_op, p.disk.seek_us / 1000.0,
                p.disk.rotational_us / 1000.0, p.disk.transfer_us / 1000.0);
    std::snprintf(key, sizeof(key), "turnstile_%dt_ops_per_vsec", threads);
    report.AddMetric(key, p.ops_per_vsec, Direction::kHigherIsBetter,
                     "ops/vsec");
    std::snprintf(key, sizeof(key), "turnstile_%dt_forces_per_op", threads);
    report.AddMetric(key, p.forces_per_op, Direction::kLowerIsBetter);
    std::snprintf(key, sizeof(key), "turnstile_%dt_disk_seek_ms", threads);
    report.AddMetric(key, p.disk.seek_us / 1000.0, Direction::kLowerIsBetter,
                     "vms");
    std::snprintf(key, sizeof(key), "turnstile_%dt_disk_rot_ms", threads);
    report.AddMetric(key, p.disk.rotational_us / 1000.0,
                     Direction::kLowerIsBetter, "vms");
    std::snprintf(key, sizeof(key), "turnstile_%dt_disk_xfer_ms", threads);
    report.AddMetric(key, p.disk.transfer_us / 1000.0,
                     Direction::kLowerIsBetter, "vms");
  }
  AddLatencyInfo(report, points.front(), "read");
  AddLatencyInfo(report, points.front(), "write");
  AddLatencyInfo(report, points.front(), "create");
  AddLatencyInfo(report, points.front(), "force");

  // The turnstile determinism contract, checked in anger: every thread
  // count must have produced the same disk footprint.
  bool deterministic = true;
  for (const ReplayPoint& p : points) {
    deterministic &= p.disk.reads == points.front().disk.reads &&
                     p.disk.writes == points.front().disk.writes &&
                     p.disk.busy_us == points.front().disk.busy_us;
  }
  std::printf("turnstile footprint identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");
  CEDAR_CHECK(deterministic);

  // Free-running 8-thread replay with per-tenant root attribution:
  // schedule-dependent, so informational only.
  cedar::obs::DiskTracer tracer;
  const ReplayPoint free_run =
      RunReplay(trace, 8, cpu_scale, /*free_run=*/true, &tracer);
  std::printf("\nFree-run replay, 8 threads (informational)\n");
  std::printf("  aggregate: %.1f ops/vsec\n", free_run.ops_per_vsec);
  report.AddInfo("freerun_8t_ops_per_vsec", free_run.ops_per_vsec);
  for (std::size_t tenant = 0; tenant < free_run.per_tenant.size();
       ++tenant) {
    const std::string root = "wl.t" + std::to_string(tenant);
    const cedar::obs::OpClassAggregate agg = tracer.RootAggregateFor(root);
    std::printf("  tenant %zu: %llu ops, disk busy %.1f vms\n", tenant,
                (unsigned long long)free_run.per_tenant[tenant].ops,
                agg.TotalUs() / 1000.0);
    std::snprintf(key, sizeof(key), "freerun_t%zu_ops", tenant);
    report.AddInfo(key,
                   static_cast<double>(free_run.per_tenant[tenant].ops));
    std::snprintf(key, sizeof(key), "freerun_t%zu_disk_busy_ms", tenant);
    report.AddInfo(key, agg.TotalUs() / 1000.0);
  }
  return report;
}

// Proves the gate fires: identical runs PASS, a CPU-slowed run REGRESSES,
// and tampered reports are refused. Returns the process exit code.
int GateSelftest() {
  const WorkloadShape shape = SmokeShape();
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("gate-selftest: %-40s %s\n", what, cond ? "ok" : "FAIL");
    failures += cond ? 0 : 1;
  };

  util::JsonValue base =
      RunWorkloadBench(shape, 1.0, true, nullptr).Build();
  util::JsonValue same =
      RunWorkloadBench(shape, 1.0, true, nullptr).Build();
  util::JsonValue slow =
      RunWorkloadBench(shape, 4.0, true, nullptr).Build();
  std::printf("\n");

  auto cmp_same = cedar::obs::CompareBenchReports(base, same);
  expect(cmp_same.ok(), "identical runs compare");
  if (cmp_same.ok()) {
    expect(!cmp_same.value().regression, "identical runs PASS the gate");
  }

  auto cmp_slow = cedar::obs::CompareBenchReports(base, slow);
  expect(cmp_slow.ok(), "slowed run compares (digest unchanged)");
  if (cmp_slow.ok()) {
    std::printf("\n%s\n",
                cedar::obs::FormatDeltaTable(cmp_slow.value(), false).c_str());
    expect(cmp_slow.value().regression, "CPU-slowed run fails the gate");
    bool throughput_flagged = false;
    for (const auto& delta : cmp_slow.value().deltas) {
      throughput_flagged |=
          delta.regressed && delta.name == "turnstile_1t_ops_per_vsec";
    }
    expect(throughput_flagged, "throughput drop is the flagged metric");
  }

  util::JsonValue bad_schema = base;
  bad_schema.Set("schema_version", util::JsonValue::Number(99));
  expect(!cedar::obs::CompareBenchReports(bad_schema, same).ok(),
         "schema mismatch is refused");

  util::JsonValue bad_digest = base;
  bad_digest.Set("config_digest", util::JsonValue::String("deadbeef"));
  expect(!cedar::obs::CompareBenchReports(bad_digest, same).ok(),
         "config digest mismatch is refused");

  std::printf("\ngate-selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv,
             {{"--smoke"},
              {"--gate-selftest"},
              {"--json", /*takes_value=*/true},
              {"--cpu-scale", /*takes_value=*/true},
              {"--trace-out", /*takes_value=*/true}});
  if (HasFlag(argc, argv, "--gate-selftest")) {
    return GateSelftest();
  }
  const bool smoke = SmokeMode(argc, argv);
  const double cpu_scale =
      std::atof(StringFlag(argc, argv, "--cpu-scale", "1.0"));
  const char* json_path = StringFlag(argc, argv, "--json");
  const char* trace_out = StringFlag(argc, argv, "--trace-out");

  std::printf("Trace-driven workload replay (3 tenants, Zipf)\n\n");
  const WorkloadShape shape = smoke ? SmokeShape() : WorkloadShape{};
  BenchReport report = RunWorkloadBench(shape, cpu_scale, smoke, trace_out);
  if (json_path != nullptr) {
    CEDAR_CHECK_OK(report.WriteFile(json_path));
  }
  return 0;
}
