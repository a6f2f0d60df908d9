#include "src/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

struct LocalSlot {
  std::uint64_t generation = 0;
  ThreadSpans* buffer = nullptr;
};
thread_local LocalSlot tls_slot;

struct NameLess {
  bool operator()(const char* a, const char* b) const {
    return std::strcmp(a, b) < 0;
  }
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kWorkload:
      return "workload";
    case Layer::kVolume:
      return "volume";
    case Layer::kCore:
      return "core";
    case Layer::kSim:
      return "sim";
  }
  return "?";
}

std::int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

ThreadSpans* Tracer::Local() {
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (tls_slot.generation != generation || tls_slot.buffer == nullptr) {
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> lock(mu_);
    tls_slot.buffer = buffer.get();
    tls_slot.generation = generation;
    buffers_.push_back(std::move(buffer));
  }
  return tls_slot.buffer;
}

std::int32_t Tracer::Begin(const char* name, Layer layer,
                           std::uint64_t vnow) {
  ThreadSpans* local = Local();
  Span span;
  span.name = name;
  span.layer = layer;
  if (layer == Layer::kClient && local->open.empty()) {
    local->op_id = next_op_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  span.parent = local->open.empty() ? -1 : local->open.back();
  span.op_id = span.parent < 0 && layer != Layer::kClient ? 0 : local->op_id;
  span.start_vus = vnow;
  span.start_ns = WallNowNs();
  const auto index = static_cast<std::int32_t>(local->spans.size());
  local->spans.push_back(span);
  local->open.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index, std::uint64_t vnow) {
  ThreadSpans* local = Local();
  if (index >= static_cast<std::int32_t>(local->spans.size()) ||
      local->open.empty() || local->open.back() != index) {
    return;  // the buffer was collected while the span was open
  }
  Span& span = local->spans[static_cast<std::size_t>(index)];
  span.end_ns = WallNowNs();
  span.end_vus = vnow;
  local->open.pop_back();
  if (local->open.empty()) local->op_id = 0;
}

bool Tracer::InSpan() { return !Local()->open.empty(); }

std::vector<std::vector<Span>> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  for (auto& buffer : buffers_) {
    if (!buffer->spans.empty()) out.push_back(std::move(buffer->spans));
  }
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return out;
}

const SpanSummary::ByName* SpanSummary::Find(const std::string& name) const {
  auto it = std::lower_bound(names.begin(), names.end(), name,
                             [](const auto& entry, const std::string& key) {
                               return entry.first < key;
                             });
  return it != names.end() && it->first == name ? &it->second : nullptr;
}

SpanSummary Summarize(const std::vector<std::vector<Span>>& threads) {
  SpanSummary summary;
  std::map<const char*, SpanSummary::ByName, NameLess> by_name;
  for (const std::vector<Span>& spans : threads) {
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double wall_us =
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      const double self_us = std::max(0.0, wall_us - child_us[i]);
      std::size_t root = i;
      while (spans[root].parent >= 0) {
        root = static_cast<std::size_t>(spans[root].parent);
      }
      // Client-op trees carry the per-layer accounting; recovery trees
      // ("client.recover") and daemon trees ("core.background") do not.
      const bool op_tree = std::strcmp(spans[root].name, kClientOpSpan) == 0;
      if (op_tree) {
        summary.layer_self_us[static_cast<int>(span.layer)] += self_us;
        if (span.parent < 0) {
          summary.root_wall_us += wall_us;
          ++summary.client_ops;
        }
      }
      if (span.layer == Layer::kSim) {
        summary.sim_wall_us += wall_us;
        if (std::strcmp(spans[root].name, kBackgroundSpan) == 0) {
          summary.background_sim_wall_us += wall_us;
        }
      }
      SpanSummary::ByName& entry = by_name[span.name];
      entry.layer = span.layer;
      entry.self_wall_us.push_back(self_us);
      entry.wall_us.push_back(wall_us);
      entry.start_ns.push_back(span.start_ns);
      entry.vus.push_back(
          static_cast<double>(span.end_vus - span.start_vus));
      entry.wall_sum_us += wall_us;
      ++summary.spans;
    }
  }
  for (auto& [name, entry] : by_name) {
    summary.names.emplace_back(name, std::move(entry));
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& threads,
                std::size_t limit) {
  std::size_t total = 0;
  for (const std::vector<Span>& spans : threads) total += spans.size();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "thread\tindex\tname\tlayer\tparent\top\tstart_ns\tend_ns\t"
               "start_vus\tend_vus\n");
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const std::size_t keep =
        total <= limit ? threads[t].size()
                       : static_cast<std::size_t>(
                             static_cast<double>(threads[t].size()) *
                             static_cast<double>(limit) /
                             static_cast<double>(total));
    for (std::size_t i = 0; i < keep; ++i) {
      const Span& s = threads[t][i];
      std::fprintf(file, "%zu\t%zu\t%s\t%s\t%d\t%llu\t%lld\t%lld\t%llu\t%llu\n",
                   t, i, s.name, LayerName(s.layer), s.parent,
                   static_cast<unsigned long long>(s.op_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.start_vus),
                   static_cast<unsigned long long>(s.end_vus));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
