// The diagnosis plane (src/telemetry/ stage two) end to end:
//  - StallAttribution: a synthetic span ring with known ground truth — the
//    exclusive buckets reproduce it exactly and sum to the step wall time,
//    io spans are clipped to the pop window, foreign tenants are ignored,
//    overlapping snapshots finalize each step once, and the windowed verdict
//    flips io-bound <-> decode-bound when the fixture shifts;
//  - AnomalyDetector: baselines arm after warmup, steady-state noise never
//    fires, K consecutive violations fire exactly once, M consecutive healthy
//    steps clear, unobservable signals are skipped, and the EWMA does not
//    learn from violating observations;
//  - FlightRecorder: bundles land atomically with MANIFEST.json written last,
//    rate-limited dumps are suppressed-and-counted, retention keeps only the
//    newest bundles, and a restarted recorder resumes numbering;
//  - Session integration: the monitor is a pure observer (byte-identical
//    stream with it on vs off), Diagnose() reports a coherent breakdown, a
//    scripted storage brownout is classified io-bound within 5 steps with
//    exactly ONE bundle dumped (valid manifest, parseable Chrome trace), and
//    a fault-free twin fires zero anomalies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/telemetry/anomaly.h"
#include "src/telemetry/attribution.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "tests/batch_identity.h"
#include "tests/json_parser.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

namespace fs = std::filesystem;
using testing::ExpectBatchesIdentical;
using testing::StreamStep;
using testing::JsonParser;
using testing::JsonValue;
using testing::ScratchDir;

// ---------------------------------------------------------------------------
// StallAttribution: synthetic fixtures with known ground truth.
// ---------------------------------------------------------------------------

TraceSpan Span(const char* name, int64_t ts_us, int64_t dur_us, int64_t step,
               IoTenantId tenant = kDefaultIoTenant, int32_t source = -1) {
  TraceSpan s;
  s.name = name;
  s.cat = "step";
  s.ts_us = ts_us;
  s.dur_us = dur_us;
  s.tenant = tenant;
  s.step = step;
  s.source = source;
  return s;
}

// One step with every bucket populated, anchored at `t0` (microseconds):
//   gate 1 ms | plan 2 ms | pop 10 ms (io.get 3 ms + io.retry 2 ms inside,
//   leaving 5 ms of pop_wait) | build 4 ms  ->  wall 17 ms, other 0.
// pop.wait details: source 7 waited 6 ms, source 3 waited 2 ms.
std::vector<TraceSpan> FullStep(int64_t t0, int64_t step) {
  return {
      Span("step.gate", t0, 1000, step),
      Span("step.plan", t0 + 1000, 2000, step),
      Span("step.pop", t0 + 3000, 10000, step),
      Span("pop.wait", t0 + 3000, 6000, step, kDefaultIoTenant, 7),
      Span("pop.wait", t0 + 3000, 2000, step, kDefaultIoTenant, 3),
      Span("io.get", t0 + 4000, 3000, -1),
      Span("io.retry", t0 + 8000, 2000, -1),
      Span("step.build", t0 + 13000, 4000, step),
  };
}

TEST(AttributionTest, ExclusiveBucketsMatchGroundTruthAndSumToWall) {
  StallAttribution attribution({.tenant = kDefaultIoTenant, .window_steps = 4});
  EXPECT_EQ(attribution.Observe(FullStep(0, 0)), 1);

  std::vector<StepBreakdown> history = attribution.History();
  ASSERT_EQ(history.size(), 1u);
  const StepBreakdown& b = history[0];
  EXPECT_EQ(b.step, 0);
  EXPECT_NEAR(b.wall_ms, 17.0, 1e-9);
  EXPECT_NEAR(b.consumer_stall_ms, 1.0, 1e-9);
  EXPECT_NEAR(b.plan_ms, 2.0, 1e-9);
  EXPECT_NEAR(b.io_backing_ms, 3.0, 1e-9);
  EXPECT_NEAR(b.io_retry_ms, 2.0, 1e-9);
  EXPECT_NEAR(b.pop_wait_ms, 5.0, 1e-9);
  EXPECT_NEAR(b.build_ms, 4.0, 1e-9);
  EXPECT_NEAR(b.other_ms, 0.0, 1e-9);
  EXPECT_EQ(b.dominant_source, 7) << "slowest pop.wait source wins";
  EXPECT_NEAR(b.dominant_source_ms, 6.0, 1e-9);

  const double sum = b.consumer_stall_ms + b.plan_ms + b.pop_wait_ms + b.io_backing_ms +
                     b.io_retry_ms + b.build_ms + b.other_ms;
  EXPECT_NEAR(sum, b.wall_ms, 1e-6) << "buckets must be exclusive and exhaustive";

  // The history JSON parses and round-trips the same numbers.
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(attribution.RenderHistoryJson(), &doc));
  const JsonValue* steps = doc.Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->array.size(), 1u);
  EXPECT_NEAR(steps->array[0].Number("wall_ms"), 17.0, 1e-6);
  EXPECT_NEAR(steps->array[0].Number("pop_wait_ms"), 5.0, 1e-6);
}

TEST(AttributionTest, IoSpansAreClippedToThePopWindowAndForeignTenantsIgnored) {
  StallAttribution attribution({.tenant = 5, .window_steps = 4});
  // pop is [3000, 13000); one io.get straddles the left edge (only 2 ms
  // inside), a second lies entirely outside, a third belongs to tenant 9.
  std::vector<TraceSpan> spans = {
      Span("step.gate", 0, 1000, 0, 5),
      Span("step.plan", 1000, 2000, 0, 5),
      Span("step.pop", 3000, 10000, 0, 5),
      Span("io.get", 1000, 4000, -1, 5),    // 2 ms clipped in
      Span("io.get", 14000, 3000, -1, 5),   // outside the pop window
      Span("io.get", 4000, 5000, -1, 9),    // foreign tenant
      Span("step.build", 13000, 4000, 0, 5),
  };
  EXPECT_EQ(attribution.Observe(spans), 1);
  std::vector<StepBreakdown> history = attribution.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_NEAR(history[0].io_backing_ms, 2.0, 1e-9);
  EXPECT_NEAR(history[0].pop_wait_ms, 8.0, 1e-9);
}

TEST(AttributionTest, OverlappingSnapshotsFinalizeEachStepOnce) {
  StallAttribution attribution({.window_steps = 4});
  std::vector<TraceSpan> spans = FullStep(0, 0);
  EXPECT_EQ(attribution.Observe(spans), 1);
  EXPECT_EQ(attribution.Observe(spans), 0) << "already-finalized steps are skipped";
  std::vector<TraceSpan> more = FullStep(20000, 1);
  more.insert(more.begin(), spans.begin(), spans.end());  // ring still holds step 0
  EXPECT_EQ(attribution.Observe(more), 1);
  EXPECT_EQ(attribution.History().size(), 2u);
  EXPECT_EQ(attribution.last_finalized_step(), 1);
}

TEST(AttributionTest, VerdictFlipsBetweenIoAndDecodeBoundWithTheFixture) {
  StallAttribution attribution({.window_steps = 4, .dominance_threshold = 0.4});
  // Phase 1: io-bound — the whole 10 ms pop is one backing Get.
  int64_t t = 0;
  for (int64_t step = 0; step < 4; ++step, t += 20000) {
    attribution.Observe({
        Span("step.gate", t, 100, step),
        Span("step.plan", t + 100, 400, step),
        Span("step.pop", t + 500, 10000, step),
        Span("io.get", t + 500, 10000, -1),
        Span("step.build", t + 10500, 1000, step),
    });
  }
  BottleneckVerdict verdict = attribution.Verdict();
  EXPECT_EQ(verdict.kind, BottleneckKind::kIoBound);
  EXPECT_GT(verdict.io_fraction, verdict.decode_fraction);
  EXPECT_GE(verdict.confidence, 0.4);
  EXPECT_EQ(verdict.steps_observed, 4);

  // Phase 2: decode-bound — same pop time, no backing I/O at all.
  for (int64_t step = 4; step < 8; ++step, t += 20000) {
    attribution.Observe({
        Span("step.gate", t, 100, step),
        Span("step.plan", t + 100, 400, step),
        Span("step.pop", t + 500, 10000, step),
        Span("pop.wait", t + 500, 10000, step, kDefaultIoTenant, 2),
        Span("step.build", t + 10500, 1000, step),
    });
  }
  verdict = attribution.Verdict();
  EXPECT_EQ(verdict.kind, BottleneckKind::kDecodeBound);
  EXPECT_GT(verdict.decode_fraction, verdict.io_fraction);
  EXPECT_EQ(verdict.dominant_source, 2);
  EXPECT_EQ(verdict.last_step, 7);
}

TEST(AttributionTest, ConsumerGateDominanceAndHealthyBelowThreshold) {
  // Consumer-bound: the producer spends most of its wall gated on the window.
  StallAttribution gated({.window_steps = 2});
  for (int64_t step = 0; step < 2; ++step) {
    const int64_t t = step * 20000;
    gated.Observe({
        Span("step.gate", t, 8000, step),
        Span("step.plan", t + 8000, 500, step),
        Span("step.pop", t + 8500, 1000, step),
        Span("step.build", t + 9500, 500, step),
    });
  }
  EXPECT_EQ(gated.Verdict().kind, BottleneckKind::kConsumerBound);

  // Healthy: no family reaches the 0.4 dominance threshold.
  StallAttribution balanced({.window_steps = 2});
  for (int64_t step = 0; step < 2; ++step) {
    const int64_t t = step * 20000;
    balanced.Observe({
        Span("step.gate", t, 3000, step),
        Span("step.plan", t + 3000, 1000, step),
        Span("step.pop", t + 4000, 3000, step),
        Span("io.get", t + 4000, 1000, -1),
        Span("step.build", t + 7000, 3000, step),
    });
  }
  const BottleneckVerdict healthy = balanced.Verdict();
  EXPECT_EQ(healthy.kind, BottleneckKind::kHealthy);
  EXPECT_GT(healthy.confidence, 0.0);
}

// ---------------------------------------------------------------------------
// AnomalyDetector: warmup, hysteresis, clearing.
// ---------------------------------------------------------------------------

SloPolicy FastPolicy() {
  SloPolicy policy;
  policy.warmup_steps = 4;
  policy.trigger_after = 2;
  policy.clear_after = 3;
  return policy;
}

SloSample HealthySample() {
  SloSample s;
  s.step_ms = 100.0;
  s.tokens_per_sec = 1000.0;
  s.cache_hit_rate = 0.9;
  s.retry_rate = 0.0;
  return s;
}

TEST(AnomalyTest, WarmupArmsWithoutFiringAndSteadyNoiseStaysQuiet) {
  AnomalyDetector detector(FastPolicy());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(detector.OnStep(HealthySample()), 0) << "warmup must never fire";
  }
  for (const AnomalyState& s : detector.States()) {
    EXPECT_TRUE(s.armed) << s.signal;
    EXPECT_FALSE(s.alarmed) << s.signal;
  }
  // +-10% jitter around the baseline: armed but quiet.
  for (int i = 0; i < 50; ++i) {
    SloSample s = HealthySample();
    const double jitter = (i % 2 == 0) ? 1.1 : 0.9;
    s.step_ms *= jitter;
    s.tokens_per_sec *= jitter;
    EXPECT_EQ(detector.OnStep(s), 0);
  }
  EXPECT_EQ(detector.active(), 0);
  EXPECT_EQ(detector.triggers(), 0);
}

TEST(AnomalyTest, FiresAfterKConsecutiveViolationsOnceAndClearsAfterM) {
  AnomalyDetector detector(FastPolicy());
  for (int i = 0; i < 4; ++i) {
    detector.OnStep(HealthySample());
  }
  SloSample slow = HealthySample();
  slow.step_ms = 1000.0;  // 10x baseline, factor is 3
  EXPECT_EQ(detector.OnStep(slow), 0) << "one violation is below trigger_after=2";
  EXPECT_EQ(detector.OnStep(slow), 1) << "second consecutive violation fires";
  EXPECT_EQ(detector.OnStep(slow), 0) << "an already-alarmed signal does not re-fire";
  EXPECT_EQ(detector.active(), 1);
  EXPECT_EQ(detector.triggers(), 1);

  // A single healthy step resets the violation streak but not the alarm...
  EXPECT_EQ(detector.OnStep(HealthySample()), 0);
  EXPECT_EQ(detector.active(), 1);
  // ...and clear_after=3 consecutive healthy steps clear it.
  detector.OnStep(HealthySample());
  detector.OnStep(HealthySample());
  EXPECT_EQ(detector.active(), 0);
  EXPECT_EQ(detector.triggers(), 1) << "clearing is not a trigger";

  // The interrupted violation streak never fired: consecutive means consecutive.
  detector.OnStep(slow);
  detector.OnStep(HealthySample());
  detector.OnStep(slow);
  EXPECT_EQ(detector.active(), 0);
}

TEST(AnomalyTest, BaselineLearnsOnlyFromHealthyObservations) {
  AnomalyDetector detector(FastPolicy());
  for (int i = 0; i < 4; ++i) {
    detector.OnStep(HealthySample());
  }
  // A sustained 10x regression must not drag its own baseline up and
  // silence itself: it stays alarmed for arbitrarily long.
  SloSample slow = HealthySample();
  slow.step_ms = 1000.0;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    fired += detector.OnStep(slow);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(detector.active(), 1) << "EWMA absorbed the violation — baseline leaked";
}

TEST(AnomalyTest, UnobservableSignalsAreSkippedAndDistinctSignalsFire) {
  AnomalyDetector detector(FastPolicy());
  for (int i = 0; i < 4; ++i) {
    detector.OnStep(HealthySample());
  }
  // Hit-rate/retry-rate unobservable (-1): neither violates nor heals.
  SloSample partial;
  partial.step_ms = 100.0;
  partial.tokens_per_sec = 1000.0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(detector.OnStep(partial), 0);
  }
  // Throughput collapse + hit-rate collapse: two distinct signals fire.
  SloSample bad = HealthySample();
  bad.tokens_per_sec = 10.0;  // < 0.3x baseline
  bad.cache_hit_rate = 0.1;   // > 0.3 absolute drop
  EXPECT_EQ(detector.OnStep(bad), 0);
  EXPECT_EQ(detector.OnStep(bad), 2) << "throughput and hit-rate fire together";
  EXPECT_EQ(detector.active(), 2);

  // RenderJson parses and reports the alarmed pair.
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(detector.RenderJson(), &doc));
  EXPECT_EQ(doc.Number("active"), 2.0);
  const JsonValue* signals = doc.Find("signals");
  ASSERT_NE(signals, nullptr);
  EXPECT_EQ(signals->array.size(), 4u);
}

// ---------------------------------------------------------------------------
// FlightRecorder: atomic bundles, rate limit, retention, resume.
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DumpWritesManifestAndArtifactsAtomically) {
  const std::string dir = ScratchDir("recorder_dump");
  FlightRecorder recorder({.dir = dir, .keep_bundles = 4, .min_interval_ms = 0});
  Result<std::string> path = recorder.Dump(
      "anomaly step_latency_ms at step 7",
      {{"trace.json", "{\"traceEvents\":[]}"}, {"log_tail.txt", "w line\n"}});
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path.value(), (fs::path(dir) / "bundle-0").string());
  EXPECT_EQ(recorder.bundles_written(), 1);

  std::ifstream manifest_in(fs::path(path.value()) / "MANIFEST.json");
  std::stringstream manifest;
  manifest << manifest_in.rdbuf();
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(manifest.str(), &doc));
  EXPECT_EQ(doc.Number("seq"), 0.0);
  EXPECT_EQ(doc.String("reason"), "anomaly step_latency_ms at step 7");
  const JsonValue* files = doc.Find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->array.size(), 2u);
  EXPECT_EQ(files->array[0].string, "trace.json");

  std::ifstream trace_in(fs::path(path.value()) / "trace.json");
  std::stringstream trace;
  trace << trace_in.rdbuf();
  EXPECT_EQ(trace.str(), "{\"traceEvents\":[]}");
  EXPECT_FALSE(fs::exists(fs::path(dir) / "bundle-0.tmp")) << "staging must be renamed away";
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, RateLimitSuppressesAndCounts) {
  const std::string dir = ScratchDir("recorder_rate");
  FlightRecorder recorder({.dir = dir, .keep_bundles = 4, .min_interval_ms = 60000});
  ASSERT_TRUE(recorder.Dump("first", {{"a.txt", "a"}}).ok());
  Result<std::string> second = recorder.Dump("second", {{"a.txt", "a"}});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().empty()) << "rate-limited dump returns an empty path";
  EXPECT_EQ(recorder.bundles_written(), 1);
  EXPECT_EQ(recorder.suppressed(), 1);
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, RetentionKeepsNewestAndRestartResumesNumbering) {
  const std::string dir = ScratchDir("recorder_keep");
  {
    FlightRecorder recorder({.dir = dir, .keep_bundles = 2, .min_interval_ms = 0});
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(recorder.Dump(std::string("r").append(std::to_string(i)), {{"a.txt", "a"}}).ok());
    }
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / "bundle-0"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "bundle-1"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "bundle-2"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "bundle-3"));

  // A restarted process must not overwrite surviving evidence.
  FlightRecorder resumed({.dir = dir, .keep_bundles = 2, .min_interval_ms = 0});
  Result<std::string> next = resumed.Dump("after restart", {{"a.txt", "a"}});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), (fs::path(dir) / "bundle-4").string());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Session integration: pure observer, Diagnose, brownout classification.
// ---------------------------------------------------------------------------

Session::Options HealthSessionOptions() {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = 8 * kKiB;
  options.block_cache_bytes = 32 * kMiB;
  options.storage_get_latency = 100;  // 0.1 ms: remote, but test-fast
  return options;
}

TEST(SessionHealthTest, RejectsMonitorWithoutItsPrerequisites) {
  Session::Options no_telemetry = HealthSessionOptions();
  no_telemetry.telemetry_enabled = false;
  no_telemetry.health.enabled = true;
  EXPECT_FALSE(Session::Create(no_telemetry).ok());

  Session::Options no_tracer = HealthSessionOptions();
  no_tracer.trace_ring_spans = 0;
  no_tracer.health.enabled = true;
  EXPECT_FALSE(Session::Create(no_tracer).ok());

  Session::Options synchronous = HealthSessionOptions();
  synchronous.prefetch_depth = 0;
  synchronous.health.enabled = true;
  EXPECT_FALSE(Session::Create(synchronous).ok());
}

TEST(SessionHealthTest, MonitorIsAPureObserverByteIdenticalStreams) {
  Session::Options with_monitor = HealthSessionOptions();
  with_monitor.health.enabled = true;
  Session::Options without_monitor = HealthSessionOptions();
  auto on = Session::Create(with_monitor);
  auto off = Session::Create(without_monitor);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_NE((*on)->health(), nullptr);
  EXPECT_EQ((*off)->health(), nullptr);

  for (int64_t s = 0; s < 4; ++s) {
    std::vector<RankBatch> a = StreamStep(**on);
    std::vector<RankBatch> b = StreamStep(**off);
    ASSERT_EQ(a.size(), b.size());
    for (size_t rank = 0; rank < a.size(); ++rank) {
      ExpectBatchesIdentical(a[rank], b[rank]);
    }
  }

  // Diagnose reports a coherent breakdown of the produced steps.
  HealthReport report = (*on)->health()->Diagnose();
  EXPECT_GE(report.verdict.steps_observed, 1);
  ASSERT_FALSE(report.recent.empty());
  for (const StepBreakdown& b : report.recent) {
    const double sum = b.consumer_stall_ms + b.plan_ms + b.pop_wait_ms + b.io_backing_ms +
                       b.io_retry_ms + b.build_ms + b.other_ms;
    EXPECT_NEAR(sum, b.wall_ms, 1e-6) << "step " << b.step;
  }
  EXPECT_EQ(report.hard_events, 0);
  EXPECT_EQ(report.bundles_written, 0) << "healthy run must not dump bundles";

  // The exported gauges exist on the session registry.
  TelemetrySnapshot snap = (*on)->metrics()->Snapshot();
  bool saw_verdict = false;
  for (const MetricPoint& p : snap.points) {
    if (p.name == "msd_health_verdict") {
      saw_verdict = true;
    }
  }
  EXPECT_TRUE(saw_verdict);
}

TEST(SessionHealthTest, BrownoutIsClassifiedIoBoundWithExactlyOneBundle) {
  const std::string dir = ScratchDir("health_brownout");
  Session::Options options = HealthSessionOptions();
  options.health.enabled = true;
  options.health.recorder_dir = dir;
  options.health.slo.warmup_steps = 4;
  options.health.slo.trigger_after = 2;
  options.health.slo.clear_after = 64;  // stays alarmed for the whole test
  options.health.recorder_min_interval_ms = 60000;  // one bundle, full stop
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_NE((*session)->remote_store(), nullptr);

  // Healthy phase: warm the baselines past the warmup window.
  for (int64_t s = 0; s < 8; ++s) {
    StreamStep(**session);
  }
  HealthReport before = (*session)->health()->Diagnose();
  EXPECT_EQ(before.triggers_total, 0) << "fault-free phase must not trigger";
  EXPECT_EQ(before.bundles_written, 0);

  // Scripted brownout: the backing store's RPC floor jumps from 0.1 ms to a
  // floor sized off the MEASURED healthy baseline the detector just learned —
  // one Get at 4x the baseline step latency guarantees the violation margin
  // (latency_factor defaults to 3) whatever the box speed, so the test holds
  // on a loaded CI runner and under sanitizer slowdown alike.  The
  // paper-scale 5 ms -> 25 ms drill lives in bench --diagnosis-smoke.
  double baseline_step_ms = 0.0;
  for (const AnomalyState& s : before.anomalies) {
    if (std::string(s.signal) == "step_latency_ms") {
      baseline_step_ms = s.baseline;
    }
  }
  const int64_t brownout_us =
      std::max<int64_t>(100000, static_cast<int64_t>(baseline_step_ms * 1000.0 * 4.0));
  (*session)->remote_store()->set_get_latency(brownout_us);
  int64_t steps_to_verdict = -1;
  for (int64_t s = 0; s < 5; ++s) {
    StreamStep(**session);
    if ((*session)->health()->Diagnose().verdict.kind == BottleneckKind::kIoBound) {
      steps_to_verdict = s + 1;
      break;
    }
  }
  EXPECT_GE(steps_to_verdict, 1) << "brownout was never classified io-bound within 5 steps";

  // Keep streaming a few steps: the anomaly fires once, dumps ONE bundle.
  for (int64_t s = 0; s < 4; ++s) {
    StreamStep(**session);
  }
  HealthReport after = (*session)->health()->Diagnose();
  EXPECT_EQ(after.verdict.kind, BottleneckKind::kIoBound);
  EXPECT_GE(after.triggers_total, 1);
  EXPECT_EQ(after.bundles_written, 1) << "one incident, one bundle";

  // The bundle is complete: manifest parses, trace parses, verdict parses.
  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(dir)) {
    bundles.push_back(entry.path());
  }
  ASSERT_EQ(bundles.size(), 1u);
  for (const char* name : {"MANIFEST.json", "trace.json", "metrics.json",
                           "attribution.json", "verdict.json"}) {
    std::ifstream in(bundles[0] / name);
    ASSERT_TRUE(in.is_open()) << name;
    std::stringstream content;
    content << in.rdbuf();
    JsonValue doc;
    EXPECT_TRUE(JsonParser::Parse(content.str(), &doc)) << name << " is not valid JSON";
  }
  fs::remove_all(dir);
}

TEST(SessionHealthTest, SetSloPolicyRetunesWithoutRewarming) {
  Session::Options options = HealthSessionOptions();
  options.health.enabled = true;
  options.health.slo.warmup_steps = 2;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int64_t s = 0; s < 4; ++s) {
    StreamStep(**session);
  }
  SloPolicy loose = options.health.slo;
  loose.latency_factor = 100.0;  // effectively disables the latency signal
  (*session)->health()->SetSloPolicy(loose);
  HealthReport report = (*session)->health()->Diagnose();
  for (const AnomalyState& s : report.anomalies) {
    if (std::string(s.signal) == "step_latency_ms") {
      EXPECT_TRUE(s.armed) << "baselines survive a policy swap";
    }
  }
}

}  // namespace
}  // namespace msd
