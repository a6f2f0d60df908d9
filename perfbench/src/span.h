// Outside-in span tracing for the benchmark.
//
// A span is one call into a layer (the client op, a router call, an FSD
// call, a simulated-disk request), recorded from the benchmark's own files
// around the layer's public functions. Each thread appends its spans to its
// own buffer, so recording takes no lock; the buffers are collected after
// every thread that wrote them has been joined.
//
// Spans of one client op share its op id. A span opened on a thread with no
// open span has no client parent: the decorators name such spans
// "core.background" (daemon threads issuing disk requests).

#ifndef PERFBENCH_SRC_SPAN_H_
#define PERFBENCH_SRC_SPAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Root span of one client op, and the span that groups a daemon thread's
// disk requests.
inline constexpr const char* kClientOpSpan = "client.op";
inline constexpr const char* kBackgroundSpan = "core.background";

// The layers, named after the repository's modules.
enum class Layer : std::uint8_t { kClient, kWorkload, kVolume, kCore, kSim };
inline constexpr int kLayerCount = 5;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  // a string literal; compared by content
  Layer layer = Layer::kClient;
  std::int32_t parent = -1;  // index in the same thread's buffer
  std::uint64_t op_id = 0;   // client op; 0 = none (background)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t start_vus = 0;
  std::uint64_t end_vus = 0;
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
  std::uint64_t op_id = 0;
};

std::int64_t WallNowNs();

// Process-wide span recorder. Disabled, Begin/End cost one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread; returns its index or -1 when
  // tracing is off. Layer kClient spans start a new client op.
  std::int32_t Begin(const char* name, Layer layer, std::uint64_t vnow);
  void End(std::int32_t index, std::uint64_t vnow);
  // True if the calling thread has an open span.
  bool InSpan();

  // Moves every thread's spans out (callers join the writers first).
  std::vector<std::vector<Span>> Collect();

 private:
  ThreadSpans* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint64_t> generation_{1};
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

// RAII span. `vclock` returns the layer's virtual time in microseconds. A
// null name records nothing.
template <typename VClock>
class SpanScope {
 public:
  SpanScope(const char* name, Layer layer, VClock vclock)
      : vclock_(vclock),
        index_(name != nullptr && Tracer::Get().enabled()
                   ? Tracer::Get().Begin(name, layer, vclock_())
                   : -1) {}
  ~SpanScope() {
    if (index_ >= 0) Tracer::Get().End(index_, vclock_());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  VClock vclock_;
  std::int32_t index_;
};

// Per-name self-time statistics derived from collected spans. Self time is
// a span's duration minus the durations of its direct children (calls on
// one thread nest, so children never overlap each other).
struct SpanSummary {
  struct ByName {
    Layer layer = Layer::kClient;
    std::vector<double> self_wall_us;  // one per span, in start order
    std::vector<double> wall_us;
    std::vector<double> vus;           // virtual duration
    std::vector<std::int64_t> start_ns;
    double wall_sum_us = 0;
  };
  std::vector<std::pair<std::string, ByName>> names;  // sorted by name
  // Over client-op trees: self time per layer, and the roots' wall time.
  double layer_self_us[kLayerCount] = {};
  double root_wall_us = 0;
  std::uint64_t client_ops = 0;
  double background_sim_wall_us = 0;  // sim spans under core.background
  double sim_wall_us = 0;
  std::uint64_t spans = 0;

  const ByName* Find(const std::string& name) const;
};

SpanSummary Summarize(const std::vector<std::vector<Span>>& threads);

// Writes the spans, one tab-separated line each (thread index name layer
// parent op start_ns end_ns start_vus end_vus), at most `limit` of them:
// each thread's first spans, in proportion to its share.
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& threads,
                std::size_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_H_
