// In-memory span ring for the layer drill. The drill wraps each call into a
// layer's public API in a span (name, layer, start, end, parent); spans stay
// in memory while the drill runs and are written out as Chrome trace JSON at
// exit. Nothing here reaches into src/: the spans sit at the call sites.
#ifndef LAYERBENCH_SPAN_RING_H_
#define LAYERBENCH_SPAN_RING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_math.h"

namespace layerbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  const char* name = "";   // string literal: the call ("loader.pop")
  const char* layer = "";  // string literal: the module it belongs to
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t step = -1;
  uint32_t tid = 0;
};

class SpanRing {
 public:
  explicit SpanRing(size_t capacity) : spans_(capacity) {}

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  // Off: spans are neither allocated an id nor stored (the drill's
  // spans-off pass measures what recording costs).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[written_ % spans_.size()] = span;
    ++written_;
  }

  // Retained spans, oldest first.
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = std::min<size_t>(written_, spans_.size());
    std::vector<Span> out;
    out.reserve(n);
    for (size_t i = written_ - n; i < written_; ++i) {
      out.push_back(spans_[i % spans_.size()]);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t written_ = 0;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> enabled_{true};
};

// Small per-thread lane number for the trace viewer.
inline uint32_t ThreadLane() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

// RAII span. Safe on any thread; records on destruction when the ring is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanRing* ring, const char* name, const char* layer, uint64_t parent, int64_t step)
      : ring_(ring != nullptr && ring->enabled() ? ring : nullptr) {
    if (ring_ != nullptr) {
      span_.id = ring_->NextId();
      span_.parent = parent;
      span_.name = name;
      span_.layer = layer;
      span_.step = step;
      span_.tid = ThreadLane();
      span_.begin_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (ring_ != nullptr) {
      span_.end_ns = NowNs();
      ring_->Record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanRing* ring_;
  Span span_;
};

// Self time per layer and per span name, in nanoseconds: each span's
// duration minus what its direct children cover.
struct SelfTimes {
  std::map<std::string, int64_t> by_layer;
  std::map<std::string, int64_t> by_name;
  std::map<std::string, int64_t> count_by_name;
};

inline SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back({s.begin_ns, s.end_ns});
    }
  }
  SelfTimes out;
  static const std::vector<Interval> kNone;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const int64_t self =
        SelfNs({s.begin_ns, s.end_ns}, it != children.end() ? it->second : kNone);
    out.by_layer[s.layer] += self;
    out.by_name[s.name] += self;
    out.count_by_name[s.name] += 1;
  }
  return out;
}

// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
inline bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,\"step\":%lld}}",
                 i == 0 ? "" : ",", s.name, s.layer, (s.begin_ns - origin) / 1e3,
                 (s.end_ns - s.begin_ns) / 1e3, s.tid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), static_cast<long long>(s.step));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace layerbench

#endif  // LAYERBENCH_SPAN_RING_H_
