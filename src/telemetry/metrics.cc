#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/status.h"

namespace msd {

namespace {

// Formats a double the way both Prometheus and JSON accept: integers print
// without a fraction, everything else with enough digits to round-trip.
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  MSD_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    MSD_CHECK(bounds_[i] > bounds_[i - 1]);
  }
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  size_t idx = bounds_.size();  // overflow bucket
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      idx = i;
      break;
    }
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v, std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bounds_.size() + 1, 0);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry::MetricsRegistry() : start_(std::chrono::steady_clock::now()) {}

Counter* MetricsRegistry::GetCounter(const std::string& name, IoTenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.try_emplace({name, tenant});
  if (inserted) {
    it->second = std::make_unique<Counter>();
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, IoTenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.try_emplace({name, tenant});
  if (inserted) {
    it->second = std::make_unique<Gauge>();
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, std::vector<double> bounds,
                                         IoTenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace({name, tenant});
  if (inserted) {
    it->second = std::make_unique<Histogram>(std::move(bounds));
  }
  return it->second.get();
}

int64_t MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t handle = next_collector_++;
  collectors_.emplace(handle, std::move(collector));
  return handle;
}

void MetricsRegistry::RemoveCollector(int64_t handle) {
  // Snapshot() runs collectors under mu_, so acquiring it here provides the
  // "no snapshot mid-flight" guarantee the destructor ordering relies on.
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(handle);
}

TelemetrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetrySnapshot snap;
  snap.uptime_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  for (const auto& [key, counter] : counters_) {
    MetricPoint point;
    point.name = key.first;
    point.kind = MetricKind::kCounter;
    point.tenant = key.second;
    point.value = static_cast<double>(counter->value());
    snap.points.push_back(std::move(point));
  }
  for (const auto& [key, gauge] : gauges_) {
    MetricPoint point;
    point.name = key.first;
    point.kind = MetricKind::kGauge;
    point.tenant = key.second;
    point.value = gauge->value();
    snap.points.push_back(std::move(point));
  }
  for (const auto& [key, hist] : histograms_) {
    MetricPoint point;
    point.name = key.first;
    point.kind = MetricKind::kHistogram;
    point.tenant = key.second;
    point.bounds = hist->bounds();
    point.buckets = hist->BucketCounts();
    point.sum = hist->sum();
    point.count = hist->count();
    snap.points.push_back(std::move(point));
  }
  for (const auto& [handle, collector] : collectors_) {
    collector(&snap.points);
  }
  return snap;
}

std::string RenderPrometheus(const TelemetrySnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.points.size() * 64);
  std::string last_typed;  // one "# TYPE" header per series name
  for (const MetricPoint& p : snapshot.points) {
    if (p.name != last_typed) {
      out += "# TYPE " + p.name + " " + KindName(p.kind) + "\n";
      last_typed = p.name;
    }
    const std::string tenant_label =
        p.tenant == kMetricNoTenant ? "" : "tenant=\"" + std::to_string(p.tenant) + "\"";
    if (p.kind != MetricKind::kHistogram) {
      out += p.name;
      if (!tenant_label.empty()) {
        out += "{" + tenant_label + "}";
      }
      out.append(" ").append(FormatValue(p.value)).append("\n");
      continue;
    }
    // Histogram: cumulative le-buckets, then _sum and _count.
    int64_t cumulative = 0;
    for (size_t i = 0; i < p.buckets.size(); ++i) {
      cumulative += p.buckets[i];
      const std::string le =
          i < p.bounds.size() ? "le=\"" + FormatValue(p.bounds[i]) + "\"" : "le=\"+Inf\"";
      out += p.name + "_bucket{" + (tenant_label.empty() ? "" : tenant_label + ",") + le + "} " +
             FormatValue(static_cast<double>(cumulative)) + "\n";
    }
    const std::string suffix = tenant_label.empty() ? "" : "{" + tenant_label + "}";
    out += p.name + "_sum" + suffix + " " + FormatValue(p.sum) + "\n";
    out += p.name + "_count" + suffix + " " + FormatValue(static_cast<double>(p.count)) + "\n";
  }
  return out;
}

std::string RenderJson(const TelemetrySnapshot& snapshot) {
  std::string out = "{\"uptime_us\":" + std::to_string(snapshot.uptime_us) + ",\"metrics\":[";
  for (size_t i = 0; i < snapshot.points.size(); ++i) {
    const MetricPoint& p = snapshot.points[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"name\":\"" + p.name + "\",\"kind\":\"" + KindName(p.kind) + "\"";
    if (p.tenant != kMetricNoTenant) {
      out += ",\"tenant\":" + std::to_string(p.tenant);
    }
    if (p.kind != MetricKind::kHistogram) {
      out += ",\"value\":" + FormatValue(p.value);
    } else {
      out += ",\"bounds\":[";
      for (size_t b = 0; b < p.bounds.size(); ++b) {
        out.append(b > 0 ? "," : "").append(FormatValue(p.bounds[b]));
      }
      out += "],\"buckets\":[";
      for (size_t b = 0; b < p.buckets.size(); ++b) {
        out.append(b > 0 ? "," : "").append(std::to_string(p.buckets[b]));
      }
      out += "],\"sum\":" + FormatValue(p.sum) + ",\"count\":" + std::to_string(p.count);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace msd
