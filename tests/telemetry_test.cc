// The telemetry plane (src/telemetry/) end to end:
//  - MetricsRegistry: instrument identity (one counter per name+tenant),
//    histogram bucketing, collector add/remove, and the Prometheus/JSON
//    renderers (validated with a real JSON parse, not substring luck);
//  - StepTracer: bounded ring semantics (oldest dropped, snapshot oldest
//    first), ScopedSpan null-tracer tolerance, and Chrome trace-event output
//    that actually parses, with per-tenant pid attribution and process_name
//    metadata;
//  - logging satellites: SetLogSink capture and MSD_LOG_WARN_EVERY_N
//    rate-limiting (1st, n+1th, 2n+1th ... emit);
//  - Session integration: an owned session exports cache/scheduler/pipeline
//    series and step/io spans, telemetry-off streams byte-identically with no
//    registry at all;
//  - DataService: MetricsSnapshot() is a consistent cut under concurrent
//    multi-tenant streaming (slices sum to aggregates EXACTLY, invariants
//    hold per slice), equals tenant_stats() once quiescent, the periodic
//    scrape hook delivers and stops, and a faulty tenant's retries show up in
//    the dumped trace attributed to that tenant's pid — and nobody else's.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/common/logging.h"
#include "src/service/data_service.h"
#include "src/service/shared_plane.h"
#include "src/telemetry/bridge.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/batch_identity.h"
#include "tests/json_parser.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

namespace fs = std::filesystem;
using testing::ExpectBatchesIdentical;
using testing::StreamStep;
using testing::ScratchDir;

using testing::JsonParser;
using testing::JsonValue;

// ---------------------------------------------------------------------------
// Shared fixtures: same session/plane shapes as tests/service_test.cc.
// ---------------------------------------------------------------------------

Session::Options TenantSessionOptions(CorpusSpec corpus) {
  Session::Options options;
  options.corpus = std::move(corpus);
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = 8 * kKiB;  // several groups per file
  return options;
}

SharedIoPlaneConfig TestPlaneConfig() {
  SharedIoPlaneConfig config;
  config.cache_bytes = 64 * kMiB;
  config.storage_get_latency = 200;  // 0.2 ms: remote, but test-fast
  return config;
}

// Thread-safe streaming body: no gtest assertions off the main thread.
bool StreamStepsQuietly(Session* session, int64_t steps) {
  const int32_t world = session->tree().spec().WorldSize();
  for (int64_t s = 0; s < steps; ++s) {
    for (int32_t rank = 0; rank < world; ++rank) {
      Result<RankBatch> batch = session->client(rank).value()->NextBatch();
      if (!batch.ok()) {
        return false;
      }
    }
  }
  return true;
}

const MetricPoint* FindPoint(const TelemetrySnapshot& snap, const std::string& name,
                             IoTenantId tenant) {
  for (const MetricPoint& p : snap.points) {
    if (p.name == name && p.tenant == tenant) {
      return &p;
    }
  }
  return nullptr;
}

// Sum of a counter series over every tenant-labelled point (the aggregate,
// kMetricNoTenant, excluded).
double SumTenantPoints(const TelemetrySnapshot& snap, const std::string& name) {
  double sum = 0.0;
  for (const MetricPoint& p : snap.points) {
    if (p.name == name && p.tenant != kMetricNoTenant) {
      sum += p.value;
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// MetricsRegistry: instruments, collectors, renderers.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreSharedByNameAndTenant) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("msd_test_total");
  Counter* b = registry.GetCounter("msd_test_total");
  EXPECT_EQ(a, b) << "same name+tenant must return the same instrument";
  Counter* t3 = registry.GetCounter("msd_test_total", 3);
  EXPECT_NE(a, t3) << "a tenant label is a distinct series";
  a->Increment(5);
  a->Increment();
  t3->Increment(2);

  Gauge* g = registry.GetGauge("msd_test_depth");
  g->Set(7.5);
  EXPECT_EQ(registry.GetGauge("msd_test_depth"), g);

  TelemetrySnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.uptime_us, 0);
  const MetricPoint* agg = FindPoint(snap, "msd_test_total", kMetricNoTenant);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(agg->value, 6.0);
  const MetricPoint* slice = FindPoint(snap, "msd_test_total", 3);
  ASSERT_NE(slice, nullptr);
  EXPECT_DOUBLE_EQ(slice->value, 2.0);
  const MetricPoint* depth = FindPoint(snap, "msd_test_depth", kMetricNoTenant);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(depth->value, 7.5);
}

TEST(MetricsRegistryTest, HistogramBucketsObserveWithInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("msd_test_ms", {1.0, 2.0, 4.0});
  // Re-fetching ignores the bounds argument and returns the same instrument.
  EXPECT_EQ(registry.GetHistogram("msd_test_ms", {99.0}), h);
  h->Observe(0.5);    // <= 1 -> bucket 0
  h->Observe(2.0);    // == bound -> bucket 1 (inclusive upper)
  h->Observe(3.0);    // bucket 2
  h->Observe(100.0);  // overflow bucket
  TelemetrySnapshot snap = registry.Snapshot();
  const MetricPoint* p = FindPoint(snap, "msd_test_ms", kMetricNoTenant);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind, MetricKind::kHistogram);
  EXPECT_EQ(p->bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(p->buckets, (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(p->count, 4);
  EXPECT_DOUBLE_EQ(p->sum, 105.5);
}

TEST(MetricsRegistryTest, CollectorsAppendUntilRemoved) {
  MetricsRegistry registry;
  const int64_t handle = registry.AddCollector([](std::vector<MetricPoint>* out) {
    MetricPoint p;
    p.name = "msd_test_bridged_total";
    p.kind = MetricKind::kCounter;
    p.value = 42.0;
    out->push_back(std::move(p));
  });
  EXPECT_NE(FindPoint(registry.Snapshot(), "msd_test_bridged_total", kMetricNoTenant), nullptr);
  registry.RemoveCollector(handle);
  EXPECT_EQ(FindPoint(registry.Snapshot(), "msd_test_bridged_total", kMetricNoTenant), nullptr);
}

TEST(MetricsRegistryTest, PrometheusRenderingIsExact) {
  MetricsRegistry registry;
  registry.GetCounter("msd_test_total")->Increment(3);
  registry.GetCounter("msd_test_total", 2)->Increment(4);
  Histogram* h = registry.GetHistogram("msd_test_ms", {1.0, 4.0}, 7);
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(9.0);
  const std::string text = RenderPrometheus(registry.Snapshot());
  // One TYPE header per series name, not per labelled point.
  EXPECT_EQ(text.find("# TYPE msd_test_total counter"),
            text.rfind("# TYPE msd_test_total counter"));
  EXPECT_NE(text.find("msd_test_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("msd_test_total{tenant=\"2\"} 4\n"), std::string::npos);
  // Histogram: cumulative le-buckets ending at +Inf, then _sum and _count,
  // tenant label composed with le.
  EXPECT_NE(text.find("# TYPE msd_test_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("msd_test_ms_bucket{tenant=\"7\",le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("msd_test_ms_bucket{tenant=\"7\",le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("msd_test_ms_bucket{tenant=\"7\",le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("msd_test_ms_sum{tenant=\"7\"} 11.5\n"), std::string::npos);
  EXPECT_NE(text.find("msd_test_ms_count{tenant=\"7\"} 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonRenderingParses) {
  MetricsRegistry registry;
  registry.GetCounter("msd_test_total", 2)->Increment(7);
  registry.GetGauge("msd_test_depth")->Set(1.25);
  registry.GetHistogram("msd_test_ms", {1.0, 4.0})->Observe(2.0);
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(RenderJson(registry.Snapshot()), &root));
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_GE(root.Number("uptime_us"), 0.0);
  const JsonValue* metrics = root.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->kind, JsonValue::kArray);
  ASSERT_EQ(metrics->array.size(), 3u);
  bool saw_counter = false;
  bool saw_hist = false;
  for (const JsonValue& m : metrics->array) {
    if (m.String("name") == "msd_test_total") {
      saw_counter = true;
      EXPECT_EQ(m.String("kind"), "counter");
      EXPECT_DOUBLE_EQ(m.Number("tenant"), 2.0);
      EXPECT_DOUBLE_EQ(m.Number("value"), 7.0);
    }
    if (m.String("name") == "msd_test_ms") {
      saw_hist = true;
      EXPECT_EQ(m.String("kind"), "histogram");
      const JsonValue* buckets = m.Find("buckets");
      ASSERT_NE(buckets, nullptr);
      EXPECT_EQ(buckets->array.size(), 3u);  // 2 bounds + overflow
      EXPECT_DOUBLE_EQ(m.Number("count"), 1.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

// ---------------------------------------------------------------------------
// StepTracer: ring semantics and Chrome trace output.
// ---------------------------------------------------------------------------

TEST(StepTracerTest, RingDropsOldestAndSnapshotsOldestFirst) {
  StepTracer tracer(4);
  static const char* kNames[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (int i = 0; i < 6; ++i) {
    TraceSpan span;
    span.name = kNames[i];
    span.cat = "test";
    span.ts_us = i;
    tracer.Record(span);
  }
  EXPECT_EQ(tracer.recorded(), 6);
  EXPECT_EQ(tracer.dropped(), 2);
  std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, kNames[i + 2]) << "ring must keep the newest, oldest first";
  }
}

TEST(StepTracerTest, ScopedSpanToleratesNullTracerAndRecordsOtherwise) {
  {
    ScopedSpan span(nullptr, "noop", "test", kDefaultIoTenant, 1);
    span.set_ok(false);  // must be a no-op, not a crash
  }
  StepTracer tracer(8);
  {
    ScopedSpan span(&tracer, "io.retry", "io", /*tenant=*/5, /*step=*/-1, /*rank=*/3,
                    /*attempt=*/2);
    span.set_ok(false);
  }
  std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "io.retry");
  EXPECT_EQ(spans[0].tenant, 5);
  EXPECT_EQ(spans[0].rank, 3);
  EXPECT_EQ(spans[0].attempt, 2);
  EXPECT_FALSE(spans[0].ok);
  EXPECT_GE(spans[0].dur_us, 0);
  EXPECT_GT(spans[0].lane, 0);
}

TEST(StepTracerTest, ChromeTraceIsValidJsonWithTenantPids) {
  StepTracer tracer(16);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(&tracer, "step.plan", "step", /*tenant=*/1, /*step=*/i);
    (void)span;
  }
  {
    ScopedSpan span(&tracer, "io.get", "io", /*tenant=*/2);
    (void)span;
  }
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(tracer.RenderChromeTrace(), &root));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  std::set<double> metadata_pids;
  int x_events = 0;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.String("ph");
    if (ph == "M") {
      EXPECT_EQ(e.String("name"), "process_name");
      metadata_pids.insert(e.Number("pid"));
      continue;
    }
    ASSERT_EQ(ph, "X") << "only complete events and metadata are emitted";
    ++x_events;
    EXPECT_GE(e.Number("ts"), 0.0);
    EXPECT_GE(e.Number("dur"), 0.0);
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    // pid IS the tenant: that is the attribution contract.
    EXPECT_EQ(e.Number("pid"), args->Number("tenant"));
  }
  EXPECT_EQ(x_events, 4);
  EXPECT_EQ(metadata_pids, (std::set<double>{1.0, 2.0}));
}

// ---------------------------------------------------------------------------
// Logging satellites: sink capture + per-site rate limiting.
// ---------------------------------------------------------------------------

struct CapturedLine {
  LogLevel level;
  std::string message;
};

std::vector<CapturedLine> CaptureWarnings(const std::function<void()>& body) {
  std::mutex mu;
  std::vector<CapturedLine> lines;
  SetLogSink([&mu, &lines](LogLevel level, const char* file, int line, const char* message) {
    (void)file;
    (void)line;
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back({level, message});
  });
  body();
  SetLogSink(nullptr);  // restore stderr
  return lines;
}

TEST(LoggingTest, SinkCapturesFormattedLines) {
  std::vector<CapturedLine> lines = CaptureWarnings([] {
    MSD_LOG_WARN("retry %d of %s", 2, "corpus/file-0001");
  });
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].level, LogLevel::kWarn);
  EXPECT_EQ(lines[0].message, "retry 2 of corpus/file-0001");
}

TEST(LoggingTest, WarnEveryNEmitsFirstThenEveryNth) {
  std::vector<CapturedLine> lines = CaptureWarnings([] {
    for (int i = 0; i < 9; ++i) {
      MSD_LOG_WARN_EVERY_N(4, "hit %d", i);
    }
  });
  // Hits 1, 5, 9 emit: the 1st and every 4th after it.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].message, "hit 0");
  EXPECT_EQ(lines[1].message, "hit 4");
  EXPECT_EQ(lines[2].message, "hit 8");
}

TEST(LoggingTest, SuppressedLinesAreCountedAndSurfacedThroughTheBridge) {
  const int64_t before = SuppressedLogLines();
  std::vector<CapturedLine> lines = CaptureWarnings([] {
    for (int i = 0; i < 20; ++i) {
      MSD_LOG_WARN_EVERY_N(10, "suppressed-bridge-probe %d", i);
    }
  });
  // Hits 1 and 11 emit; the other 18 must be COUNTED, not vanish.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(SuppressedLogLines() - before, 18);

  // ...and the registry export carries the aggregate as a counter point.
  std::vector<MetricPoint> points;
  AppendLoggingMetrics(&points);
  const MetricPoint* suppressed = nullptr;
  for (const MetricPoint& p : points) {
    if (p.name == "msd_log_suppressed_total") {
      suppressed = &p;
    }
  }
  ASSERT_NE(suppressed, nullptr);
  EXPECT_EQ(suppressed->kind, MetricKind::kCounter);
  EXPECT_EQ(suppressed->tenant, kMetricNoTenant);
  EXPECT_GE(suppressed->value, 18.0);

  // The per-site breakdown names this call site with its suppressed count.
  bool found_site = false;
  for (const SuppressedLogSite& site : SuppressedLogSites()) {
    if (site.file != nullptr && std::string(site.file).find("telemetry_test") != std::string::npos &&
        site.suppressed >= 18) {
      found_site = true;
    }
  }
  EXPECT_TRUE(found_site);
}

TEST(LoggingTest, LogRingBoundsRetentionAndTapsEmittedLines) {
  LogRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    ring.Append("line " + std::to_string(i));
  }
  EXPECT_EQ(ring.appended(), 6);
  EXPECT_EQ(ring.dropped(), 2);
  std::vector<std::string> tail = ring.Tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front(), "line 2") << "oldest retained first";
  EXPECT_EQ(tail.back(), "line 5");

  // AppendFormatted renders the same "[L file:line] msg" shape bundles show.
  LogRing formatted(4);
  formatted.AppendFormatted(LogLevel::kWarn, "loader.cc", 42, "slow source 7");
  std::vector<std::string> rendered = formatted.Tail();
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "[W loader.cc:42] slow source 7");

  // An attached ring taps every emitted line — but not suppressed ones.
  LogRing tap(8);
  AttachLogRing(&tap);
  CaptureWarnings([] {
    for (int i = 0; i < 5; ++i) {
      MSD_LOG_WARN_EVERY_N(10, "tap-probe %d", i);
    }
  });
  DetachLogRing(&tap);
  std::vector<std::string> tapped = tap.Tail();
  ASSERT_EQ(tapped.size(), 1u) << "only the 1st of 5 rate-limited hits emits";
  EXPECT_NE(tapped[0].find("tap-probe 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Session integration: an owned session exports its whole stack.
// ---------------------------------------------------------------------------

TEST(SessionTelemetryTest, OwnedSessionExportsMetricsAndTrace) {
  Session::Options options = TenantSessionOptions(MakeCoyo700m());
  options.block_cache_bytes = 32 * kMiB;
  options.storage_get_latency = 200;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int64_t s = 0; s < 2; ++s) {
    StreamStep(**session);
  }

  ASSERT_NE((*session)->metrics(), nullptr);
  ASSERT_NE((*session)->tracer(), nullptr);
  TelemetrySnapshot snap = (*session)->metrics()->Snapshot();

  // The pipeline series reflect the two consumed steps (the producer may be
  // ahead by prefetch_depth, never behind).
  const MetricPoint* produced =
      FindPoint(snap, "msd_pipeline_steps_produced_total", kMetricNoTenant);
  ASSERT_NE(produced, nullptr);
  EXPECT_GE(produced->value, 2.0);

  // Bridged cache series form a consistent cut: lookups == hits + misses.
  const MetricPoint* lookups = FindPoint(snap, "msd_cache_lookups_total", kMetricNoTenant);
  const MetricPoint* hits = FindPoint(snap, "msd_cache_hits_total", kMetricNoTenant);
  const MetricPoint* misses = FindPoint(snap, "msd_cache_misses_total", kMetricNoTenant);
  ASSERT_NE(lookups, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(lookups->value, 0.0);
  EXPECT_DOUBLE_EQ(lookups->value, hits->value + misses->value);

  // Producer-path latency histograms observed one sample per produced step.
  const MetricPoint* produce_ms = FindPoint(snap, "msd_step_produce_ms", kMetricNoTenant);
  ASSERT_NE(produce_ms, nullptr);
  EXPECT_EQ(produce_ms->kind, MetricKind::kHistogram);
  EXPECT_GE(produce_ms->count, 2);

  // Storage series exist and the renderers accept the snapshot.
  EXPECT_NE(FindPoint(snap, "msd_storage_gets_total", kMetricNoTenant), nullptr);
  const std::string text = RenderPrometheus(snap);
  EXPECT_NE(text.find("# TYPE msd_pipeline_steps_produced_total counter"), std::string::npos);
  JsonValue rendered;
  EXPECT_TRUE(JsonParser::Parse(RenderJson(snap), &rendered));

  // The trace ring saw the producer and io paths; the dump round-trips
  // through disk as valid Chrome trace JSON.
  const std::string dir = ScratchDir("telemetry_trace");
  fs::create_directories(dir);
  const std::string path = dir + "/trace.json";
  ASSERT_TRUE((*session)->DumpTrace(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(buffer.str(), &root));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> names;
  for (const JsonValue& e : events->array) {
    if (e.String("ph") == "X") {
      names.insert(e.String("name"));
    }
  }
  EXPECT_TRUE(names.count("step.plan")) << "producer planning span missing";
  EXPECT_TRUE(names.count("step.pop")) << "sample-pop span missing";
  EXPECT_TRUE(names.count("step.build")) << "constructor-build span missing";
  EXPECT_TRUE(names.count("io.get")) << "backing Get span missing";
  fs::remove_all(dir);
}

TEST(SessionTelemetryTest, TelemetryOffStreamsIdenticallyWithNoRegistry) {
  // Negative trace ring is rejected up front.
  Session::Options bad = TenantSessionOptions(MakeCoyo700m());
  bad.trace_ring_spans = -1;
  EXPECT_FALSE(Session::Create(bad).ok());

  Session::Options on = TenantSessionOptions(MakeCoyo700m());
  on.block_cache_bytes = 32 * kMiB;
  Session::Options off = on;
  off.telemetry_enabled = false;
  auto with = Session::Create(on);
  auto without = Session::Create(off);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();

  EXPECT_EQ((*without)->metrics(), nullptr);
  EXPECT_EQ((*without)->tracer(), nullptr);
  EXPECT_FALSE((*without)->DumpTrace("/tmp/never-written.json").ok());

  // Telemetry must be a pure observer: the byte streams are identical.
  for (int64_t s = 0; s < 2; ++s) {
    std::vector<RankBatch> a = StreamStep(**with);
    std::vector<RankBatch> b = StreamStep(**without);
    ASSERT_EQ(a.size(), b.size());
    for (size_t rank = 0; rank < a.size(); ++rank) {
      ExpectBatchesIdentical(a[rank], b[rank]);
    }
  }
  // And metrics-only mode (ring = 0) keeps the registry without a tracer.
  Session::Options metrics_only = TenantSessionOptions(MakeCoyo700m());
  metrics_only.trace_ring_spans = 0;
  auto mo = Session::Create(metrics_only);
  ASSERT_TRUE(mo.ok()) << mo.status().ToString();
  EXPECT_NE((*mo)->metrics(), nullptr);
  EXPECT_EQ((*mo)->tracer(), nullptr);
}

// ---------------------------------------------------------------------------
// DataService: consistent snapshots under fire, scrape hook, fault traces.
// ---------------------------------------------------------------------------

TEST(ServiceTelemetryTest, MetricsSnapshotIsConsistentUnderConcurrentStreaming) {
  DataService service(TestPlaneConfig());
  DataService::TenantConfig alpha;
  alpha.session = TenantSessionOptions(MakeCoyo700m());
  DataService::TenantConfig beta;
  beta.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("alpha", alpha).ok());
  ASSERT_TRUE(service.RegisterTenant("beta", beta).ok());

  std::atomic<int> done{0};
  std::atomic<bool> stream_failed{false};
  std::vector<std::thread> streams;
  for (const std::string name : {"alpha", "beta"}) {
    streams.emplace_back([&service, &done, &stream_failed, name] {
      if (!StreamStepsQuietly(service.session(name), 4)) {
        stream_failed.store(true);
      }
      done.fetch_add(1);
    });
  }

  // Hammer MetricsSnapshot() while both tenants stream. Every cut must be
  // internally consistent — a torn read of any counter pair fails here.
  int iterations = 0;
  while (done.load() < 2) {
    DataService::ServiceSnapshot snap = service.MetricsSnapshot();
    ++iterations;
    int64_t cache_lookups = 0;
    int64_t io_requests = 0;
    int64_t io_issued = 0;
    int64_t resident = 0;
    for (const auto& [name, slice] : snap.tenants) {
      // Cache slices are taken under the all-shard lock: exact, not
      // approximate.
      ASSERT_EQ(slice.cache.lookups, slice.cache.hits + slice.cache.misses)
          << "tenant " << name << " cache slice tore at iteration " << iterations;
      // A scheduler request is categorized (hit/coalesced/issued) a moment
      // after it is counted, so mid-flight the parts can lag the total —
      // but never exceed it.
      ASSERT_GE(slice.scheduler.requests,
                slice.scheduler.cache_hits + slice.scheduler.coalesced +
                    slice.scheduler.issued_gets)
          << "tenant " << name << " scheduler slice tore at iteration " << iterations;
      cache_lookups += slice.cache.lookups;
      io_requests += slice.scheduler.requests;
      io_issued += slice.scheduler.issued_gets;
      resident += slice.cache.resident_bytes;
    }
    // The slices come from the SAME locked pass as the aggregates, so they
    // sum EXACTLY — this is the property a per-subsystem stats() loop over
    // tenants cannot give you.
    ASSERT_EQ(cache_lookups, snap.cache.lookups)
        << "tenant cache slices do not sum to the aggregate at iteration " << iterations;
    ASSERT_EQ(resident, snap.cache.resident_bytes);
    ASSERT_EQ(io_requests, snap.scheduler.requests)
        << "tenant scheduler slices do not sum to the aggregate at iteration " << iterations;
    ASSERT_EQ(io_issued, snap.scheduler.issued_gets);
    // Same property on the rendered series: per-tenant points sum to the
    // unlabelled aggregate point inside one registry snapshot.
    const MetricPoint* agg = FindPoint(snap.telemetry, "msd_io_requests_total", kMetricNoTenant);
    ASSERT_NE(agg, nullptr);
    ASSERT_DOUBLE_EQ(SumTenantPoints(snap.telemetry, "msd_io_requests_total"), agg->value);
  }
  for (std::thread& t : streams) {
    t.join();
  }
  ASSERT_FALSE(stream_failed.load());
  EXPECT_GT(iterations, 0);

  // Quiesce: the producers keep prefetching briefly after the consumers stop;
  // wait until two successive cuts agree, then the snapshot's slices must
  // equal tenant_stats() field for field.
  DataService::ServiceSnapshot settled = service.MetricsSnapshot();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    DataService::ServiceSnapshot next = service.MetricsSnapshot();
    if (next.scheduler.requests == settled.scheduler.requests &&
        next.cache.lookups == settled.cache.lookups) {
      settled = std::move(next);
      break;
    }
    settled = std::move(next);
  }
  for (const std::string name : {"alpha", "beta"}) {
    DataService::TenantStats direct = service.tenant_stats(name).value();
    auto it = settled.tenants.find(name);
    ASSERT_NE(it, settled.tenants.end());
    EXPECT_EQ(it->second.id, direct.id);
    EXPECT_EQ(it->second.cache.lookups, direct.cache.lookups);
    EXPECT_EQ(it->second.cache.hits, direct.cache.hits);
    EXPECT_EQ(it->second.cache.resident_bytes, direct.cache.resident_bytes);
    EXPECT_EQ(it->second.scheduler.requests, direct.scheduler.requests);
    EXPECT_EQ(it->second.scheduler.issued_gets, direct.scheduler.issued_gets);
    EXPECT_GT(direct.scheduler.requests, 0);
  }
  EXPECT_GT(settled.backing_gets, 0);
}

TEST(ServiceTelemetryTest, ScrapeHookDeliversSnapshotsUntilStopped) {
  DataService service(TestPlaneConfig());
  DataService::TenantConfig cfg;
  cfg.session = TenantSessionOptions(MakeCoyo700m());
  ASSERT_TRUE(service.RegisterTenant("job", cfg).ok());

  EXPECT_FALSE(service.StartScrape(0, [](const DataService::ServiceSnapshot&) {}).ok());
  EXPECT_FALSE(service.StartScrape(10, nullptr).ok());

  std::mutex mu;
  std::condition_variable cv;
  int delivered = 0;
  ASSERT_TRUE(service
                  .StartScrape(5,
                               [&](const DataService::ServiceSnapshot& snap) {
                                 EXPECT_EQ(snap.tenants.size(), 1u);
                                 std::lock_guard<std::mutex> lock(mu);
                                 ++delivered;
                                 cv.notify_all();
                               })
                  .ok());
  // A second concurrent scrape is rejected.
  EXPECT_FALSE(service.StartScrape(5, [](const DataService::ServiceSnapshot&) {}).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return delivered >= 3; }));
  }
  service.StopScrape();
  const int at_stop = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return delivered;
  }();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(delivered, at_stop) << "scrape kept firing after StopScrape";
  }
  // Stopped state restarts cleanly.
  ASSERT_TRUE(service.StartScrape(5, [](const DataService::ServiceSnapshot&) {}).ok());
  service.StopScrape();
}

TEST(ServiceTelemetryTest, FaultyTenantRetriesAreAttributedInDumpedTrace) {
  SharedIoPlaneConfig plane = TestPlaneConfig();
  plane.retry.max_attempts = 3;  // ride out fail-first-1
  DataService service(plane);

  DataService::TenantConfig healthy;
  healthy.session = TenantSessionOptions(MakeCoyo700m());
  // Disjoint corpus so the flaky tenant cannot ride the healthy tenant's
  // cached blocks — every range it reads must survive its own first-attempt
  // failure.
  DataService::TenantConfig flaky;
  flaky.session = TenantSessionOptions(MakeTextCorpus(13, 4));
  flaky.storage_faults.fail_first_n = 1;
  ASSERT_TRUE(service.RegisterTenant("healthy", healthy).ok());
  ASSERT_TRUE(service.RegisterTenant("flaky", flaky).ok());
  const IoTenantId healthy_id = service.tenant_stats("healthy").value().id;
  const IoTenantId flaky_id = service.tenant_stats("flaky").value().id;

  for (int64_t s = 0; s < 2; ++s) {
    StreamStep(*service.session("healthy"));
    StreamStep(*service.session("flaky"));
  }
  // The chaos actually fired and the retries actually saved the stream.
  DataService::TenantStats fs_stats = service.tenant_stats("flaky").value();
  ASSERT_GT(fs_stats.scheduler.retries, 0);
  EXPECT_EQ(service.tenant_stats("healthy").value().scheduler.retries, 0);

  const std::string dir = ScratchDir("telemetry_fault_trace");
  fs::create_directories(dir);
  const std::string path = dir + "/trace.json";
  ASSERT_TRUE(service.DumpTrace(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(buffer.str(), &root)) << "trace is not valid JSON";
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  int retries_seen = 0;
  std::set<double> get_pids;
  std::set<double> named_pids;
  for (const JsonValue& e : events->array) {
    if (e.String("ph") == "M" && e.String("name") == "process_name") {
      named_pids.insert(e.Number("pid"));
      continue;
    }
    if (e.String("ph") != "X") {
      continue;
    }
    const std::string name = e.String("name");
    if (name == "io.get") {
      get_pids.insert(e.Number("pid"));
    }
    if (name == "io.retry") {
      ++retries_seen;
      // Every retry belongs to the tenant whose storage is flaky — chaos
      // attribution never bleeds onto the healthy neighbour.
      EXPECT_EQ(e.Number("pid"), static_cast<double>(flaky_id))
          << "retry span attributed to the wrong tenant";
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->Number("attempt"), 1.0);
    }
  }
  EXPECT_GT(retries_seen, 0) << "no retry spans in the trace";
  // Both tenants issued primary Gets, and both pids are named in metadata.
  EXPECT_TRUE(get_pids.count(static_cast<double>(healthy_id)));
  EXPECT_TRUE(get_pids.count(static_cast<double>(flaky_id)));
  EXPECT_TRUE(named_pids.count(static_cast<double>(healthy_id)));
  EXPECT_TRUE(named_pids.count(static_cast<double>(flaky_id)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace msd
