// perfbench: the end-to-end benchmark of the FSD stack.
//
//   perfbench --workload meta_hot|grow_large|fanout_8v --seed N
//             --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run. A detail report (and, traced, the
// spans) goes to .bench_out/ under the working directory. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// The exit code is nonzero when any op or correctness check failed.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/bench.h"

namespace perfbench {
namespace {

constexpr const char* kOutDir = ".bench_out";

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string basis;  // how it was computed: samples, numerator/denominator
  // Printed in the report but left out of the result line (and of
  // BENCHMARK.json): a number too dependent on the host's load to bound.
  bool report_only = false;
};

std::string Num(double value) {
  if (!std::isfinite(value)) value = 0;
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Extra(const RunResult& result, const std::string& name) {
  for (const auto& [key, value] : result.extra) {
    if (key == name) return value;
  }
  return 0.0;
}

class MetricList {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           std::string basis, bool report_only = false) {
    metrics_.push_back(Metric{name, unit, std::isfinite(value) ? value : 0.0,
                              std::move(basis), report_only});
  }
  // A ratio, printed with its numerator and denominator.
  void AddRatio(const std::string& name, const std::string& unit, double num,
                const std::string& num_label, double den,
                const std::string& den_label, double scale = 1.0) {
    Add(name, unit, Ratio(num, den) * scale,
        num_label + " " + Num(num) + " / " + den_label + " " + Num(den) +
            (scale != 1.0 ? " x " + Num(scale) : ""));
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string Samples(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

MetricList EndToEnd(const RunResult& r, double error_rate) {
  MetricList m;
  m.Add("setup_s", "s", Median(r.setup_s),
        "median of " + Samples(r.setup_s.size(), "set-ups"));
  m.AddRatio("ops_per_vsec", "ops/vsec", static_cast<double>(r.ops), "ops",
             r.op_vsec, "virtual s");
  m.Add("vlat_p50_vms", "vms", Percentile(r.op_vus, 0.50) / 1e3,
        "p50 of " + Samples(r.op_vus.size(), "ops"));
  m.Add("vlat_p99_vms", "vms", Percentile(r.op_vus, 0.99) / 1e3,
        "p99 of " + Samples(r.op_vus.size(), "ops"));
  m.Add("durable_p90_vms", "vms", Percentile(r.force_vus, 0.90) / 1e3,
        "p90 of " + Samples(r.force_vus.size(), "client forces"));
  // Client host time: per pass, then the best pass, which discounts passes
  // slowed by other work on the host (as repeated timings take their
  // minimum). Report-only: on a shared host the speed drifts by more than
  // any bound over minutes, so no pass statistic makes these comparable
  // from run to run.
  m.Add("wall_ops_per_s", "1/s", Percentile(r.pass_wall_ops_per_s, 1.0),
        "best of " + Samples(r.pass_wall_ops_per_s.size(), "passes") +
            " of ops / host s; all: " + Num(static_cast<double>(r.ops)) +
            " / " + Num(r.op_wall_s),
        true);
  m.Add("wall_p50_us", "us", Percentile(r.pass_wall_p50_us, 0.0),
        "best of " + Samples(r.pass_wall_p50_us.size(), "passes") +
            " of p50; " + Samples(r.op_wall_us.size(), "ops"),
        true);
  m.Add("wall_p99_us", "us", Percentile(r.pass_wall_p99_us, 0.0),
        "best of " + Samples(r.pass_wall_p99_us.size(), "passes") +
            " of p99; " + Samples(r.op_wall_us.size(), "ops"),
        true);
  m.Add("recovery_p50_vs", "vs", Median(r.recovery_vs),
        "median of " + Samples(r.recovery_vs.size(), "crash mounts"));
  m.Add("recovery_wall_p50_ms", "ms", Median(r.recovery_wall_ms),
        "median of " + Samples(r.recovery_wall_ms.size(), "crash mounts"));
  m.Add("success_ratio", "ratio", 1.0 - error_rate,
        "1 - error_rate " + Num(error_rate) + " (failures " +
            std::to_string(r.failures) + " / ops " + std::to_string(r.ops) +
            "; expected misses " + std::to_string(r.misses) +
            " not counted; checks " + std::to_string(r.checks) + ")");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.Add("peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0,
        "getrusage ru_maxrss");
  return m;
}

const char* kCoreOps[] = {"create", "open",   "read",   "write", "delete",
                          "list",   "touch",  "rename", "force"};

// Median self time of one span name's spans that fall in the first or the
// last tenth of them by start time.
double TenthMedian(const SpanSummary::ByName& spans, bool last) {
  std::vector<std::size_t> order(spans.start_ns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans.start_ns[a] < spans.start_ns[b];
  });
  const std::size_t tenth = order.size() / 10;
  std::vector<double> part;
  for (std::size_t i = 0; i < tenth; ++i) {
    part.push_back(spans.self_wall_us[order[last ? order.size() - 1 - i : i]]);
  }
  return Median(part);
}

MetricList PerLayer(const RunResult& r, const SpanSummary& s) {
  MetricList m;
  const Counters& c = r.counters;
  const double ops = static_cast<double>(r.ops);
  const double updates = static_cast<double>(r.updates);
  const double forces = Get(c, "fsd.forces");
  const bool routed = s.Find("volume.force") != nullptr;

  // volume: the router.
  std::vector<double> volume_self;
  for (const auto& [name, spans] : s.names) {
    if (spans.layer == Layer::kVolume) {
      volume_self.insert(volume_self.end(), spans.self_wall_us.begin(),
                         spans.self_wall_us.end());
    }
  }
  m.Add("volume.self_wall_us", "us", Median(volume_self),
        "p50 of " + Samples(volume_self.size(), "router calls"));
  if (routed) {
    m.AddRatio("volume.forces_per_update", "ratio", forces, "fsd.forces",
               updates, "updates");
  } else {
    m.Add("volume.forces_per_update", "ratio", 0, "no router");
  }
  m.AddRatio("volume.forces_per_cross_rename", "ratio",
             Extra(r, "fanout.cross_rename_forces"),
             "fsd.forces inside cross-volume renames",
             Extra(r, "fanout.cross_renames"), "router.cross_renames");
  m.Add("volume.busiest_vshare", "ratio", Extra(r, "volume.busiest_vshare"),
        routed ? "max volume clock / mean volume clock" : "no router");

  // core: FSD calls.
  for (const char* op : kCoreOps) {
    const SpanSummary::ByName* spans = s.Find(std::string("core.") + op);
    const std::size_t n = spans != nullptr ? spans->self_wall_us.size() : 0;
    m.Add(std::string("core.") + op + ".self_wall_us", "us",
          spans != nullptr ? Median(spans->self_wall_us) : 0.0,
          "p50 of " + Samples(n, "calls"));
  }
  for (const char* op : kCoreOps) {
    const SpanSummary::ByName* spans = s.Find(std::string("core.") + op);
    const std::size_t n = spans != nullptr ? spans->vus.size() : 0;
    m.Add(std::string("core.") + op + ".vms", "vms",
          spans != nullptr ? Median(spans->vus) / 1e3 : 0.0,
          "p50 of " + Samples(n, "calls"));
  }
  const SpanSummary::ByName* creates = s.Find("core.create");
  if (creates != nullptr && creates->start_ns.size() >= 100) {
    const double first = TenthMedian(*creates, false);
    const double last = TenthMedian(*creates, true);
    m.AddRatio("core.create.wall_growth", "ratio", last,
               "p50 create self us, last tenth", first, "first tenth");
  } else {
    m.Add("core.create.wall_growth", "ratio", 0, "fewer than 100 creates");
  }
  m.AddRatio("core.forces_per_update", "ratio", forces, "fsd.forces", updates,
             "updates");
  m.AddRatio("core.pages_per_force", "ratio", Get(c, "fsd.pages_captured"),
             "fsd.pages_captured", forces, "fsd.forces");
  m.Add("core.space_forces", "count", Get(c, "fsd.space_forces"),
        "fsd.space_forces over the traced ops");
  m.Add("core.empty_forces", "count", Get(c, "fsd.empty_forces"),
        "fsd.empty_forces over the traced ops");
  m.AddRatio("core.log_force.disk_vms", "vms", Get(c, "agg.fsd.log_force.us"),
             "fsd.log_force disk us", forces, "fsd.forces", 1e-3);
  m.AddRatio("core.ckpt.pages_per_update", "ratio",
             Get(c, "maint.checkpoint_pages") + Get(c, "fsd.third_flush_pages"),
             "checkpoint + third-flush pages", updates, "updates");
  m.AddRatio("core.ckpt.disk_vms", "vms",
             Get(c, "agg.fsd.ckpt.us") + Get(c, "agg.fsd.flush_third.us"),
             "fsd.ckpt + fsd.flush_third disk us", updates, "updates", 1e-3);
  m.Add("core.third_flush_fallbacks", "count",
        Get(c, "maint.third_flush_fallbacks"),
        "Maintenance().third_flush_fallbacks over the traced ops");
  m.Add("core.live_log_kb_max", "KB", Extra(r, "core.live_log_kb_max"),
        "max RecoveryWindow() sampled every 128 ops");
  m.Add("core.recovery.pages_replayed", "count", Median(r.recovery_pages),
        "median of " + Samples(r.recovery_pages.size(), "crash mounts"));
  m.Add("core.recovery.disk_vms", "vms", Median(r.recovery_disk_vms),
        "median fsd.mount disk time of " +
            Samples(r.recovery_disk_vms.size(), "crash mounts"));
  const SpanSummary::ByName* mounts = s.Find("core.mount");
  m.Add("core.recovery.self_wall_ms", "ms",
        mounts != nullptr ? Median(mounts->self_wall_us) / 1e3 : 0.0,
        "median Mount() self time of " +
            Samples(mounts != nullptr ? mounts->self_wall_us.size() : 0,
                    "crash mounts"));
  m.AddRatio("core.background_wall_share", "ratio", s.background_sim_wall_us,
             "sim us from daemon threads", s.sim_wall_us, "all sim us");

  // btree/cache: the name table.
  m.AddRatio("cache.nt_reads_per_op", "sectors/op", Get(c, "read.nt"),
             "name-table sectors read", ops, "ops");
  m.Add("cache.nt_reads_per_op.first_half", "sectors/op",
        Extra(r, "cache.nt_reads_per_op.first_half"),
        "ops before the volume holds half its files (grow_large)");
  m.Add("cache.nt_reads_per_op.second_half", "sectors/op",
        Extra(r, "cache.nt_reads_per_op.second_half"),
        "ops after the volume holds half its files (grow_large)");
  m.Add("btree.nt_pages_used", "count", Extra(r, "btree.nt_pages_used"),
        "Fsck().nt_pages_checked at the end, all volumes");

  // sim: the simulated disk.
  m.AddRatio("sim.requests_per_op", "ratio", Get(c, "disk.requests"),
             "disk requests", ops, "ops");
  m.AddRatio("sim.seek_vms_per_op", "vms", Get(c, "disk.seek_us"),
             "seek us", ops, "ops", 1e-3);
  m.AddRatio("sim.rot_vms_per_op", "vms", Get(c, "disk.rotational_us"),
             "rotational us", ops, "ops", 1e-3);
  m.AddRatio("sim.xfer_vms_per_op", "vms", Get(c, "disk.transfer_us"),
             "transfer us", ops, "ops", 1e-3);
  m.AddRatio("sim.busy_share", "ratio", Get(c, "disk.busy_us"), "busy us",
             Get(c, "clock_us"), "elapsed virtual us");
  const double user_bytes = static_cast<double>(r.user_bytes);
  m.AddRatio("sim.bytes_written_per_user_byte", "ratio",
             Get(c, "disk.sectors_written") * 512, "bytes written",
             user_bytes, "user bytes");
  for (const char* region : {"log", "nt", "data"}) {
    m.AddRatio(std::string("sim.bytes_written_per_user_byte.") + region,
               "ratio", Get(c, std::string("written.") + region) * 512,
               std::string(region) + " bytes written", user_bytes,
               "user bytes");
  }
  double sim_calls = 0;
  for (const char* name : {"sim.read", "sim.write"}) {
    if (const SpanSummary::ByName* spans = s.Find(name)) {
      sim_calls += static_cast<double>(spans->wall_us.size());
    }
  }
  m.AddRatio("sim.wall_us_per_request", "us", s.sim_wall_us,
             "sim span us", sim_calls, "requests");

  // workload: the benchmark's own generator and checks.
  const SpanSummary::ByName* gen = s.Find("workload.gen");
  const SpanSummary::ByName* check = s.Find("workload.check");
  m.AddRatio("workload.gen_wall_share", "ratio",
             gen != nullptr ? gen->wall_sum_us : 0.0, "generator us",
             s.root_wall_us, "client root us");
  m.AddRatio("workload.check_wall_share", "ratio",
             check != nullptr ? check->wall_sum_us : 0.0, "check us",
             s.root_wall_us, "client root us");

  // trace: overhead and where the root spans' time went.
  m.AddRatio("trace.overhead_share", "ratio",
             r.traced_wall_us_per_op - r.untraced_wall_us_per_op,
             "traced - untraced host us/op", r.untraced_wall_us_per_op,
             "untraced host us/op");
  // Where the client ops' host time went: self time per layer per op. The
  // layers add up to the root spans' time; `client` is the remainder no
  // layer claims (the loop around the calls).
  const double client_ops = static_cast<double>(s.client_ops);
  m.AddRatio("trace.root_us_per_op", "us", s.root_wall_us, "client root us",
             client_ops, "client ops");
  for (Layer layer : {Layer::kClient, Layer::kWorkload, Layer::kVolume,
                      Layer::kCore, Layer::kSim}) {
    const std::string name = LayerName(layer);
    m.AddRatio("trace.self_us_per_op." + name, "us",
               s.layer_self_us[static_cast<int>(layer)],
               name + (layer == Layer::kClient ? " self us (unaccounted)"
                                               : " self us"),
               client_ops, "client ops");
  }
  m.Add("trace.spans", "count", static_cast<double>(s.spans),
        "spans recorded");
  return m;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload meta_hot|grow_large|fanout_8v "
               "--seed N --seconds S --trace 0|1\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (options->workload == "meta_hot" ||
                           options->workload == "grow_large" ||
                           options->workload == "fanout_8v");
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

// Writes the full report: every metric with its basis, the shape facts and
// the failure notes.
void WriteDetail(const std::string& path, const Options& options,
                 const RunResult& r, const MetricList& metrics) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  std::fprintf(file, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d,\n",
               JsonString(options.workload).c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0);
  std::fprintf(file, " \"metrics\": {");
  const char* sep = "";
  for (const Metric& metric : metrics.metrics()) {
    std::fprintf(file,
                 "%s\n  %s: {\"value\": %s, \"unit\": %s, \"basis\": %s}", sep,
                 JsonString(metric.name).c_str(), Num(metric.value).c_str(),
                 JsonString(metric.unit).c_str(),
                 JsonString(metric.basis).c_str());
    sep = ",";
  }
  std::fprintf(file, "},\n \"shape\": {");
  sep = "";
  for (const auto& [name, value] : r.shape) {
    std::fprintf(file, "%s%s: %s", sep, JsonString(name).c_str(),
                 Num(value).c_str());
    sep = ", ";
  }
  std::fprintf(file, "},\n \"virtual\": {\"ops\": %llu, \"op_vsec\": %s, "
                     "\"vlat_p50_us\": %s, \"vlat_p99_us\": %s, "
                     "\"durable_p90_us\": %s, \"recovery_p50_us\": %s},\n",
               static_cast<unsigned long long>(r.ops), Num(r.op_vsec).c_str(),
               Num(Percentile(r.op_vus, 0.5)).c_str(),
               Num(Percentile(r.op_vus, 0.99)).c_str(),
               Num(Percentile(r.force_vus, 0.90)).c_str(),
               Num(Median(r.recovery_vs) * 1e6).c_str());
  std::fprintf(file, " \"passes\": {");
  sep = "";
  for (const auto& [name, values] :
       {std::pair{"wall_ops_per_s", &r.pass_wall_ops_per_s},
        std::pair{"wall_p50_us", &r.pass_wall_p50_us},
        std::pair{"wall_p99_us", &r.pass_wall_p99_us},
        std::pair{"recovery_wall_ms", &r.recovery_wall_ms},
        std::pair{"setup_s", &r.setup_s}}) {
    std::fprintf(file, "%s\"%s\": [", sep, name);
    const char* comma = "";
    for (double value : *values) {
      std::fprintf(file, "%s%s", comma, Num(value).c_str());
      comma = ", ";
    }
    std::fprintf(file, "]");
    sep = ", ";
  }
  std::fprintf(file, "},\n");
  std::fprintf(file, " \"failures\": [");
  sep = "";
  for (const std::string& note : r.failure_notes) {
    std::fprintf(file, "%s%s", sep, JsonString(note).c_str());
    sep = ", ";
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  RunResult result;
  if (options.workload == "meta_hot") {
    result = RunMetaHot(options);
  } else if (options.workload == "grow_large") {
    result = RunGrowLarge(options);
  } else {
    result = RunFanout(options);
  }

  const double error_rate =
      Ratio(static_cast<double>(result.failures),
            static_cast<double>(std::max<std::uint64_t>(result.ops, 1)));
  MetricList metrics;
  const std::string stem = std::string(kOutDir) + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  mkdir(kOutDir, 0755);
  if (options.trace) {
    const SpanSummary summary = Summarize(result.spans);
    metrics = PerLayer(result, summary);
    if (!WriteSpans(stem + ".spans.tsv", result.spans, 200000)) {
      std::fprintf(stderr, "perfbench: cannot write %s.spans.tsv\n",
                   stem.c_str());
    }
  } else {
    metrics = EndToEnd(result, error_rate);
  }
  WriteDetail(stem + (options.trace ? "-trace1.json" : "-trace0.json"),
              options, result, metrics);

  std::printf("perfbench %s seed %llu: %llu ops, %llu updates, %llu checks, "
              "%llu failures, %llu expected misses\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.updates),
              static_cast<unsigned long long>(result.checks),
              static_cast<unsigned long long>(result.failures),
              static_cast<unsigned long long>(result.misses));
  for (const Metric& metric : metrics.metrics()) {
    std::printf("  %-40s %14.6g %-10s %s%s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.basis.c_str(),
                metric.report_only ? " [report only]" : "");
  }
  std::string json = "{\"correct\": ";
  json += result.failures == 0 ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(result.ops, 1));
  json += ", \"failed\": " + std::to_string(result.failures);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& metric : metrics.metrics()) {
    if (metric.report_only) continue;
    json += sep + JsonString(metric.name) + ": {\"value\": " +
            Num(metric.value) + ", \"unit\": " + JsonString(metric.unit) + "}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
