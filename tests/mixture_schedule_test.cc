// Dynamic mixture schedules (src/plan/mixture_schedule.h), proved three ways:
//  - unit coverage of the schedule itself: phase lookup, temperature-scaled
//    weights, the seeded multi-scale pick, override commit/serialize/restore,
//    and the structural fingerprint's stability across override commits;
//  - session-level coverage: option validation, the UpdateMixture plan-cursor
//    guard, curriculum plans matching the scalar ReferenceDataPlane, override
//    checkpointing, mid-phase resume (same mesh and a changed DP degree), and
//    the quarantine x phase-boundary interaction;
//  - a randomized scenario sweep: 50 seeded scenarios (random phases,
//    temperatures, scale sets, overrides) each crossed with an interruption —
//    none, checkpoint+resume, a CP reshard, a loader kill, or a 5% storage
//    fault schedule — and every scenario must stream byte-identical to its
//    undisturbed twin and to the reference oracle. A failure names its seed;
//    re-run one scenario with
//      ./msd_tests --gtest_filter='Sweep/MixtureSweepTest.*/<seed>'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/constructor/reference_assembly.h"
#include "src/plan/mixture_schedule.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

// ---------------------------------------------------------------------------
// Shared helpers (same idioms as checkpoint_test / pipeline_test).
// ---------------------------------------------------------------------------

void ExpectStepsIdentical(Session& got, Session& want, int64_t steps) {
  const int32_t world = got.tree().spec().WorldSize();
  ASSERT_EQ(world, want.tree().spec().WorldSize());
  for (int64_t s = 0; s < steps; ++s) {
    std::vector<RankBatch> g = StreamStep(got);
    std::vector<RankBatch> w = StreamStep(want);
    for (int32_t rank = 0; rank < world; ++rank) {
      ExpectBatchesIdentical(g[static_cast<size_t>(rank)], w[static_cast<size_t>(rank)]);
    }
  }
}

// Replays a captured step through the frozen scalar reference plane and
// checks every rank's streamed batch against it. `max_decode_patches` must
// mirror the session's bound (bound_pixel_decode ? max_seq_len : 0) — the
// decode bound is byte-affecting, so the oracle has to apply it too.
void ExpectMatchesReference(const PrefetchPipeline::Capture& capture,
                            const ParallelismSpec& spec, int32_t num_microbatches,
                            int32_t max_seq_len, int32_t max_decode_patches,
                            const std::vector<RankBatch>& streamed) {
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, num_microbatches);
  for (int32_t dp = 0; dp < spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = max_seq_len;
    config.max_decode_patches = max_decode_patches;
    ReferenceDataPlane reference(config, &tree);
    ASSERT_TRUE(reference
                    .BuildStep(capture.plan,
                               capture.slices_per_constructor[static_cast<size_t>(dp)])
                    .ok());
    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      if (CoordOfRank(spec, rank).dp != dp) {
        continue;
      }
      Result<RankBatch> want = reference.GetBatch(rank, capture.plan.step);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)], want.value());
    }
  }
}

// Sorted sample ids the plan assigns (the step's content, placement-free).
std::vector<uint64_t> PlanSampleIds(const LoadingPlan& plan) {
  std::vector<uint64_t> ids;
  ids.reserve(plan.assignments.size());
  for (const SliceAssignment& a : plan.assignments) {
    ids.push_back(a.sample_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A 3-phase curriculum over the 5 coyo700m sources: captions-heavy warmup,
// balanced middle, long-tail-sharpened tail. Boundaries land early so short
// test runs cross them.
MixtureSchedule::Options ThreePhaseCurriculum() {
  MixtureSchedule::Options options;
  options.phases = {
      {.first_step = 0, .weights = {4.0, 1.0, 1.0, 1.0, 1.0}, .temperature = 1.0},
      {.first_step = 2, .weights = {1.0, 1.0, 1.0, 1.0, 1.0}, .temperature = 2.0},
      {.first_step = 4, .weights = {0.5, 0.5, 2.0, 2.0, 4.0}, .temperature = 0.5},
  };
  return options;
}

Session::Options MixtureBaseOptions(int32_t prefetch_depth = 2) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 12;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = prefetch_depth;
  options.mixture_schedule = std::make_shared<MixtureSchedule>(ThreePhaseCurriculum());
  return options;
}

// ---------------------------------------------------------------------------
// Unit coverage: the schedule object itself.
// ---------------------------------------------------------------------------

TEST(MixtureScheduleTest, PhaseLookupFollowsBoundaries) {
  MixtureSchedule schedule(ThreePhaseCurriculum());
  EXPECT_EQ(schedule.num_phases(), 3u);
  EXPECT_EQ(schedule.num_sources(), 5u);
  EXPECT_EQ(schedule.PhaseIndexAt(0), 0);
  EXPECT_EQ(schedule.PhaseIndexAt(1), 0);
  EXPECT_EQ(schedule.PhaseIndexAt(2), 1);
  EXPECT_EQ(schedule.PhaseIndexAt(3), 1);
  EXPECT_EQ(schedule.PhaseIndexAt(4), 2);
  EXPECT_EQ(schedule.PhaseIndexAt(10000), 2);
  EXPECT_EQ(schedule.PhaseRemainingAt(0), 2);
  EXPECT_EQ(schedule.PhaseRemainingAt(3), 1);
  EXPECT_EQ(schedule.PhaseRemainingAt(4), -1);  // final phase, unbounded
  EXPECT_EQ(schedule.PhaseAt(2).temperature, 2.0);
}

TEST(MixtureScheduleTest, TemperatureScalesAndNormalizesWeights) {
  MixtureSchedule::Options options;
  options.phases = {
      {.first_step = 0, .weights = {4.0, 1.0}, .temperature = 2.0},
  };
  MixtureSchedule schedule(options);
  // w^(1/2) -> {2, 1}, normalized -> {2/3, 1/3}.
  std::vector<double> w = schedule.WeightsAt(0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(w[1], 1.0 / 3.0, 1e-12);
}

TEST(MixtureScheduleTest, TemperatureNeverResurrectsZeroWeights) {
  MixtureSchedule::Options options;
  options.phases = {
      {.first_step = 0, .weights = {1.0, 0.0, 3.0}, .temperature = 5.0},
  };
  MixtureSchedule schedule(options);
  std::vector<double> w = schedule.WeightsAt(7);
  EXPECT_EQ(w[1], 0.0);
  EXPECT_GT(w[0], 0.0);
  EXPECT_GT(w[2], 0.0);
}

TEST(MixtureScheduleTest, ScaleAtIsDeterministicBoundedAndPinnable) {
  MixtureSchedule::Options options = ThreePhaseCurriculum();
  options.scale_set = {256, 512, 1024};
  options.scale_seed = 0xABCDEF;
  options.phases[1].scale_index = 0;  // phase 1 pinned to 256
  MixtureSchedule a(options);
  MixtureSchedule b(options);
  for (int64_t step = 0; step < 64; ++step) {
    int32_t scale = a.ScaleAt(step);
    // Same structure, same seed: the pick is a pure function of the step.
    EXPECT_EQ(scale, b.ScaleAt(step));
    EXPECT_TRUE(scale == 256 || scale == 512 || scale == 1024);
    if (step >= 2 && step < 4) {
      EXPECT_EQ(scale, 256);  // the pinned phase overrides the seeded pick
    }
  }
  // No scale set: plans carry 0 and constructors use their configured cap.
  MixtureSchedule flat(ThreePhaseCurriculum());
  EXPECT_EQ(flat.ScaleAt(0), 0);
  // A different seed must actually change the sequence somewhere.
  options.scale_seed = 0xFEDCBA;
  MixtureSchedule reseeded(options);
  bool diverged = false;
  for (int64_t step = 4; step < 64 && !diverged; ++step) {
    diverged = reseeded.ScaleAt(step) != a.ScaleAt(step);
  }
  EXPECT_TRUE(diverged);
}

TEST(MixtureScheduleTest, OverridesReplaceBaseWeightsStepwise) {
  MixtureSchedule schedule(ThreePhaseCurriculum());
  ASSERT_TRUE(schedule.CommitOverride(3, {1.0, 0.0, 0.0, 0.0, 0.0}).ok());
  // Before the effective step: untouched phase weights.
  EXPECT_GT(schedule.WeightsAt(2)[1], 0.0);
  // From the effective step on: the override, with the phase's temperature
  // still applied (here T=2 on a one-hot is still one-hot after normalizing).
  std::vector<double> at3 = schedule.WeightsAt(3);
  EXPECT_NEAR(at3[0], 1.0, 1e-12);
  EXPECT_EQ(at3[1], 0.0);
  // A later override supersedes the earlier one from its own step onward.
  ASSERT_TRUE(schedule.CommitOverride(5, {0.0, 1.0, 0.0, 0.0, 0.0}).ok());
  EXPECT_NEAR(schedule.WeightsAt(4)[0], 1.0, 1e-12);
  EXPECT_NEAR(schedule.WeightsAt(5)[1], 1.0, 1e-12);
  EXPECT_NEAR(schedule.WeightsAt(9000)[1], 1.0, 1e-12);
}

TEST(MixtureScheduleTest, OverrideValidationRejectsBadWeights) {
  MixtureSchedule schedule(ThreePhaseCurriculum());
  EXPECT_FALSE(schedule.CommitOverride(-1, {1, 1, 1, 1, 1}).ok());
  EXPECT_FALSE(schedule.CommitOverride(0, {1, 1, 1}).ok());          // arity
  EXPECT_FALSE(schedule.CommitOverride(0, {1, 1, 1, 1, -0.5}).ok()); // negative
  EXPECT_FALSE(schedule.CommitOverride(0, {0, 0, 0, 0, 0}).ok());    // zero sum
  EXPECT_TRUE(schedule.OverridesSnapshot().empty());  // nothing leaked in
}

TEST(MixtureScheduleTest, OverridesSerializeRestoreByteIdentically) {
  MixtureSchedule a(ThreePhaseCurriculum());
  ASSERT_TRUE(a.CommitOverride(3, {1.0, 2.0, 3.0, 4.0, 5.0}).ok());
  ASSERT_TRUE(a.CommitOverride(9, {5.0, 4.0, 3.0, 2.0, 1.0}).ok());
  MixtureSchedule b(ThreePhaseCurriculum());
  ASSERT_TRUE(b.RestoreOverrides(a.SerializeOverrides()).ok());
  EXPECT_EQ(a.OverridesSnapshot(), b.OverridesSnapshot());
  for (int64_t step = 0; step < 16; ++step) {
    EXPECT_EQ(a.WeightsAt(step), b.WeightsAt(step)) << "step " << step;
  }
  // Corrupt blob: loud DataLoss, no partial state installed.
  MixtureSchedule c(ThreePhaseCurriculum());
  EXPECT_FALSE(c.RestoreOverrides("garbage").ok());
}

TEST(MixtureScheduleTest, StructuralFingerprintIgnoresOverrides) {
  MixtureSchedule::Options options = ThreePhaseCurriculum();
  options.scale_set = {512, 1024};
  MixtureSchedule schedule(options);
  const uint64_t before = schedule.StructuralFingerprint();
  ASSERT_TRUE(schedule.CommitOverride(4, {1, 1, 1, 1, 1}).ok());
  // Overrides are runtime planner state, not job identity: a resume with
  // overrides in flight must still pass the fingerprint check.
  EXPECT_EQ(schedule.StructuralFingerprint(), before);
  // But every structural knob must move it.
  options.scale_seed ^= 1;
  EXPECT_NE(MixtureSchedule(options).StructuralFingerprint(), before);
  options.scale_seed ^= 1;
  options.scale_set = {512};
  EXPECT_NE(MixtureSchedule(options).StructuralFingerprint(), before);
  options.scale_set = {512, 1024};
  options.phases[1].temperature = 3.0;
  EXPECT_NE(MixtureSchedule(options).StructuralFingerprint(), before);
}

// ---------------------------------------------------------------------------
// Session-level coverage: validation, the plan-cursor guard, curriculum
// streaming vs the oracle, and override checkpointing.
// ---------------------------------------------------------------------------

TEST(MixtureSessionTest, CreateValidatesScheduleOptions) {
  // Setting both schedule kinds is ambiguous.
  Session::Options both = MixtureBaseOptions();
  both.schedule = std::make_shared<StaticMix>(std::vector<double>(5, 1.0));
  EXPECT_FALSE(Session::Create(both).ok());
  // Arity must match the corpus (coyo700m has 5 sources).
  Session::Options arity = MixtureBaseOptions();
  MixtureSchedule::Options three;
  three.phases = {{.first_step = 0, .weights = {1.0, 1.0, 1.0}}};
  arity.mixture_schedule = std::make_shared<MixtureSchedule>(three);
  EXPECT_FALSE(Session::Create(arity).ok());
  // Scale entries must fit the packing bound.
  Session::Options oversized = MixtureBaseOptions();
  MixtureSchedule::Options big = ThreePhaseCurriculum();
  big.scale_set = {2048};  // > max_seq_len 1024
  oversized.mixture_schedule = std::make_shared<MixtureSchedule>(big);
  EXPECT_FALSE(Session::Create(oversized).ok());
}

TEST(MixtureSessionTest, UpdateMixtureRequiresScheduleAndUnplannedStep) {
  Session::Options plain = MixtureBaseOptions();
  plain.mixture_schedule = nullptr;
  auto no_schedule = Session::Create(plain);
  ASSERT_TRUE(no_schedule.ok());
  EXPECT_FALSE((*no_schedule)->UpdateMixture(-1, {1, 1, 1, 1, 1}).ok());

  auto session = Session::Create(MixtureBaseOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  StreamStep(**session);
  // Step 0 is long planned (and consumed): re-weighting it would fork the
  // already-issued stream.
  EXPECT_FALSE((*session)->UpdateMixture(0, {1, 1, 1, 1, 1}).ok());
  // -1 = the next unplanned step: always safe.
  EXPECT_TRUE((*session)->UpdateMixture(-1, {1, 1, 1, 1, 1}).ok());
}

TEST(MixtureSessionTest, CurriculumMatchesOracleAndExportsStatus) {
  Session::Options options = MixtureBaseOptions();
  MixtureSchedule::Options curriculum = ThreePhaseCurriculum();
  curriculum.scale_set = {256, 512, 1024};
  options.mixture_schedule = std::make_shared<MixtureSchedule>(curriculum);
  options.bound_pixel_decode = true;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  MixtureSchedule oracle_view(curriculum);
  for (int64_t step = 0; step < 6; ++step) {
    Result<PrefetchPipeline::Capture> capture = (*session)->CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    // The planner stamps the schedule's phase and seeded scale pick verbatim.
    EXPECT_EQ(capture->plan.mix_phase, oracle_view.PhaseIndexAt(step));
    EXPECT_EQ(capture->plan.pack_max_seq_len, oracle_view.ScaleAt(step));
    std::vector<RankBatch> streamed = StreamStep(**session);
    ExpectMatchesReference(capture.value(), options.spec, options.num_microbatches,
                           options.max_seq_len, /*max_decode_patches=*/options.max_seq_len,
                           streamed);
  }
  Planner::MixtureStatus mix = (*session)->LastMixtureStatus();
  EXPECT_GE(mix.step, 5);
  EXPECT_EQ(mix.effective_weights.size(), 5u);
  // The telemetry collector exports the same view as gauges.
  ASSERT_NE((*session)->metrics(), nullptr);
  TelemetrySnapshot snap = (*session)->metrics()->Snapshot();
  bool saw_phase = false, saw_scale = false, saw_weight = false;
  for (const MetricPoint& p : snap.points) {
    saw_phase |= p.name == "msd_mixture_phase";
    saw_scale |= p.name == "msd_mixture_scale";
    saw_weight |= p.name == "msd_mixture_effective_weight_s0";
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_scale);
  EXPECT_TRUE(saw_weight);
}

TEST(MixtureSessionTest, ScheduleOffPlansCarryNoScaleStamp) {
  Session::Options options = MixtureBaseOptions();
  options.mixture_schedule = nullptr;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  Result<PrefetchPipeline::Capture> capture = (*session)->CaptureStep(0);
  ASSERT_TRUE(capture.ok());
  EXPECT_EQ(capture->plan.pack_max_seq_len, 0);
  EXPECT_EQ(capture->plan.mix_phase, -1);
  EXPECT_EQ((*session)->LastMixtureStatus().step, -1);
}

// ---------------------------------------------------------------------------
// Mid-phase resume: the checkpoint plane commits the schedule position and
// the override map, and the resumed stream continues byte-identically.
// ---------------------------------------------------------------------------

class MixtureResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir("mixture_resume"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(MixtureResumeTest, ResumeMidPhaseWithOverrideIsByteIdentical) {
  const int64_t kCheckpointAt = 3;  // inside phase 1 (steps 2..3)
  auto uninterrupted = Session::Create(MixtureBaseOptions());
  ASSERT_TRUE(uninterrupted.ok());
  // The override lands at step 6 — planned only after the resume, so the
  // resumed planner must replay it from the restored override map.
  ASSERT_TRUE((*uninterrupted)->UpdateMixture(6, {1.0, 0.0, 0.0, 1.0, 2.0}).ok());
  {
    auto session = Session::Create(MixtureBaseOptions());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->UpdateMixture(6, {1.0, 0.0, 0.0, 1.0, 2.0}).ok());
    ExpectStepsIdentical(**session, **uninterrupted, kCheckpointAt);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }  // session destroyed: only the on-disk checkpoint survives

  Session::Options resumed_options = MixtureBaseOptions();
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // Steps 3..7 cross the phase-2 boundary (step 4) AND the override (step 6).
  ExpectStepsIdentical(**resumed, **uninterrupted, 5);
}

TEST_F(MixtureResumeTest, DpChangeResumeReplansCurriculumSamples) {
  const int64_t kCheckpointAt = 3;
  const ParallelismSpec new_mesh{.dp = 1, .pp = 1, .cp = 2, .tp = 1};  // dp 2 -> 1
  auto uninterrupted = Session::Create(MixtureBaseOptions());
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(MixtureBaseOptions());
    ASSERT_TRUE(session.ok());
    ExpectStepsIdentical(**session, **uninterrupted, kCheckpointAt);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }

  Session::Options resumed_options = MixtureBaseOptions();
  resumed_options.spec = new_mesh;
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  MixtureSchedule oracle_view(ThreePhaseCurriculum());
  // Steps 3..5 replan from the commit frontier under the new DP degree while
  // the curriculum crosses into phase 2: same samples drawn from the same
  // phase weights, placement re-derived, batches validated against the
  // oracle on the new mesh.
  for (int64_t s = kCheckpointAt; s < kCheckpointAt + 3; ++s) {
    Result<PrefetchPipeline::Capture> got_capture = (*resumed)->CaptureStep(s);
    Result<PrefetchPipeline::Capture> want_capture = (*uninterrupted)->CaptureStep(s);
    ASSERT_TRUE(got_capture.ok()) << got_capture.status().ToString();
    ASSERT_TRUE(want_capture.ok());
    EXPECT_EQ(PlanSampleIds(got_capture->plan), PlanSampleIds(want_capture->plan));
    EXPECT_EQ(got_capture->plan.mix_phase, oracle_view.PhaseIndexAt(s));
    EXPECT_EQ(got_capture->plan.num_buckets, new_mesh.dp);
    std::vector<RankBatch> got = StreamStep(**resumed);
    StreamStep(**uninterrupted);  // keep the reference stream step-aligned
    ExpectMatchesReference(got_capture.value(), new_mesh, 2, 1024,
                           /*max_decode_patches=*/0, got);
  }
}

// ---------------------------------------------------------------------------
// Quarantine x phase boundary: a source browning out at the exact step a
// curriculum phase flips must degrade deterministically — the quarantine
// masking and the new phase's weights renormalize together, and the planner
// RNG rollback keeps a failed strategy round from skewing later draws.
// ---------------------------------------------------------------------------

// One scripted run: brownout one source so quarantine triggers at step 2 —
// the same step phase 1 begins. Depth 0 keeps every script point
// step-aligned, so the run is a pure function of the options.
std::vector<RankBatch> RunQuarantineAtPhaseBoundary(std::map<int32_t, int64_t>* mid,
                                                    std::vector<double>* weights_mid) {
  Session::Options options = MixtureBaseOptions(/*prefetch_depth=*/0);
  // One file per source caps the autoscaler at one loader actor per source,
  // so quarantining the loader IS quarantining the source — the masked
  // effective weight below must drop to zero, not to the surviving actor's.
  for (SourceSpec& src : options.corpus.sources) {
    src.num_files = 1;
  }
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.samples_per_step = 16;
  options.row_group_bytes = 8 * kKiB;
  options.block_cache_bytes = 64 * kMiB;
  options.storage_faults.install = true;  // healthy until the script says not
  options.storage_faults.match_substr = "coyo700m/part-1/";
  options.io_retry.max_attempts = 2;
  options.io_retry.backoff_base_us = 100;
  options.quarantine_after_failures = 2;
  options.quarantine_probe_interval = 4;
  MixtureSchedule::Options curriculum;
  curriculum.phases = {
      {.first_step = 0, .weights = {1.0, 1.0, 1.0, 1.0, 1.0}, .temperature = 1.0},
      // Phase 1 starts at step 3 — the same step the quarantine lands (the
      // brownout starts at step 2; the loader's buffered metadata carries one
      // more gather, and the second consecutive failure trips the threshold
      // at 3) — and leans INTO the browning-out source, so the masking must
      // fight the curriculum and still come out deterministic.
      {.first_step = 3, .weights = {0.5, 4.0, 0.5, 0.5, 0.5}, .temperature = 0.5},
  };
  curriculum.scale_set = {512, 1024};
  options.mixture_schedule = std::make_shared<MixtureSchedule>(curriculum);
  auto session = Session::Create(options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  std::vector<RankBatch> collected;
  auto stream = [&](int64_t steps) {
    for (int64_t s = 0; s < steps; ++s) {
      std::vector<RankBatch> batches = StreamStep(**session);
      collected.insert(collected.end(), batches.begin(), batches.end());
    }
  };
  stream(2);  // steps 0-1: healthy, phase 0
  EXPECT_TRUE((*session)->QuarantinedLoaders().empty());
  (*session)->fault_store()->set_brownout(true);
  stream(2);  // steps 2-3: quarantine and phase flip land together at step 3
  *mid = (*session)->QuarantinedLoaders();
  EXPECT_FALSE(mid->empty());
  *weights_mid = (*session)->LastMixtureStatus().effective_weights;
  (*session)->fault_store()->set_brownout(false);
  stream(5);  // steps 4-8: probe re-admits, phase-1 weights fully restored
  EXPECT_TRUE((*session)->QuarantinedLoaders().empty());
  return collected;
}

TEST(MixtureQuarantineTest, QuarantineAtPhaseBoundaryIsDeterministic) {
  std::map<int32_t, int64_t> first_mid, second_mid;
  std::vector<double> first_weights, second_weights;
  std::vector<RankBatch> first = RunQuarantineAtPhaseBoundary(&first_mid, &first_weights);
  std::vector<RankBatch> second = RunQuarantineAtPhaseBoundary(&second_mid, &second_weights);
  // Same script, same seeds: the quarantine decision, the masked effective
  // weights, and every served batch replay identically.
  EXPECT_EQ(first_mid, second_mid);
  EXPECT_EQ(first_weights, second_weights);
  // The status view shows the mask: the browned-out source (part-1 = source
  // index 1) has its effective weight zeroed even though phase 1 leans into
  // it, while the survivors keep positive renormalized shares.
  ASSERT_EQ(first_weights.size(), 5u);
  EXPECT_EQ(first_weights[1], 0.0);
  EXPECT_GT(first_weights[0], 0.0);
  EXPECT_GT(first_weights[4], 0.0);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectBatchesIdentical(first[i], second[i]);
  }
}

// ---------------------------------------------------------------------------
// The randomized scenario sweep: 50 seeded (schedule x interruption)
// combinations, each byte-compared against its undisturbed twin and the
// reference oracle. Coverage no hand-picked matrix reaches: random phase
// boundaries landing on interruption steps, temperature extremes under
// faults, pinned scales across reshards, overrides straddling checkpoints.
// ---------------------------------------------------------------------------

enum class Interrupt {
  kNone = 0,
  kCheckpointResume = 1,
  kReshard = 2,
  kLoaderKill = 3,
  kStorageFaults = 4,
};

struct SweepScenario {
  uint64_t seed = 0;
  MixtureSchedule::Options schedule;
  Interrupt interrupt = Interrupt::kNone;
  int64_t interrupt_step = 2;
  bool bound_decode = false;
  bool defer_decode = false;
  bool with_override = false;
  std::vector<double> override_weights;
};

constexpr int64_t kSweepSteps = 7;
constexpr int64_t kOverrideStep = 5;

// Everything about a scenario derives from its seed — the failure message
// names the seed, so one gtest_filter re-runs the exact schedule.
SweepScenario MakeScenario(uint64_t seed) {
  std::mt19937_64 gen(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  std::uniform_real_distribution<double> weight_dist(0.2, 2.0);
  static const double kTemps[] = {0.5, 1.0, 2.0};
  SweepScenario sc;
  sc.seed = seed;
  sc.interrupt = static_cast<Interrupt>(seed % 5);
  sc.interrupt_step = 2 + static_cast<int64_t>(gen() % 3);  // 2..4
  const size_t num_phases = 1 + gen() % 3;
  std::vector<int64_t> firsts = {0};
  while (firsts.size() < num_phases) {
    int64_t f = 1 + static_cast<int64_t>(gen() % 5);  // boundaries in 1..5
    if (std::find(firsts.begin(), firsts.end(), f) == firsts.end()) {
      firsts.push_back(f);
    }
  }
  std::sort(firsts.begin(), firsts.end());
  for (int64_t first : firsts) {
    MixturePhase phase;
    phase.first_step = first;
    for (int s = 0; s < 5; ++s) {
      phase.weights.push_back(weight_dist(gen));
    }
    phase.temperature = kTemps[gen() % 3];
    sc.schedule.phases.push_back(std::move(phase));
  }
  if (gen() % 3 != 0) {  // two thirds of scenarios run multi-scale
    for (int32_t candidate : {256, 512, 1024}) {
      if (gen() % 2 == 0) {
        sc.schedule.scale_set.push_back(candidate);
      }
    }
    if (sc.schedule.scale_set.empty()) {
      sc.schedule.scale_set.push_back(512);
    }
    sc.schedule.scale_seed = 0x5ca1ab1eULL ^ seed;
    for (MixturePhase& phase : sc.schedule.phases) {
      if (gen() % 4 == 0) {  // occasional per-phase pin
        phase.scale_index = static_cast<int32_t>(gen() % sc.schedule.scale_set.size());
      }
    }
  }
  sc.bound_decode = gen() % 2 == 1;
  sc.defer_decode = gen() % 2 == 1;
  sc.with_override = gen() % 2 == 1;
  if (sc.with_override) {
    for (int s = 0; s < 5; ++s) {
      sc.override_weights.push_back(weight_dist(gen));
    }
  }
  return sc;
}

// `chaos` builds the interrupted session's options; the twin always gets the
// clean variant. Only byte-neutral knobs may differ between the two (cache,
// faults, retries) — byte-affecting ones (schedule, bound, defer, FT) match.
Session::Options ScenarioOptions(const SweepScenario& sc, bool chaos) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 8;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 64;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.row_group_bytes = 8 * kKiB;
  options.seed = 2026 + sc.seed;
  options.mixture_schedule = std::make_shared<MixtureSchedule>(sc.schedule);
  options.bound_pixel_decode = sc.bound_decode;
  options.defer_image_decode = sc.defer_decode;
  if (sc.interrupt == Interrupt::kLoaderKill) {
    options.enable_fault_tolerance = true;  // both sides; only one gets killed
  }
  if (chaos && sc.interrupt == Interrupt::kStorageFaults) {
    // The canonical absorbable chaos mix (tests/chaos_test.cc): ~5% transient
    // failures with a retry budget sized to ride them out, plus produce-round
    // retries for the rare burst that outlives it. No corruption here: the
    // sweep's randomized read patterns can land a bit-flip on a startup
    // schema read, which no retry can absorb — chaos_test owns that axis.
    options.block_cache_bytes = 64 * kMiB;
    options.storage_faults.seed = 0xC4405;
    options.storage_faults.unavailable_p = 0.05;
    options.storage_faults.deadline_p = 0.02;
    options.io_retry.max_attempts = 5;
    options.io_retry.backoff_base_us = 100;
    options.io_retry.backoff_max_us = 2000;
    options.produce_retry_attempts = 4;
  }
  return options;
}

class MixtureSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixtureSweepTest, ScenarioStreamsByteIdenticalAndMatchesOracle) {
  const uint64_t seed = GetParam();
  const SweepScenario sc = MakeScenario(seed);
  SCOPED_TRACE("repro: ./msd_tests --gtest_filter='Sweep/MixtureSweepTest."
               "ScenarioStreamsByteIdenticalAndMatchesOracle/" +
               std::to_string(seed) + "'");
  auto interrupted = Session::Create(ScenarioOptions(sc, /*chaos=*/true));
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  auto twin = Session::Create(ScenarioOptions(sc, /*chaos=*/false));
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  if (sc.with_override) {
    // Committed before any step is consumed, effective past every possible
    // interruption point — the override must survive whatever happens.
    ASSERT_TRUE((*interrupted)->UpdateMixture(kOverrideStep, sc.override_weights).ok());
    ASSERT_TRUE((*twin)->UpdateMixture(kOverrideStep, sc.override_weights).ok());
  }
  MixtureSchedule oracle_view(sc.schedule);
  ParallelismSpec mesh = ScenarioOptions(sc, false).spec;
  const int32_t decode_bound = sc.bound_decode ? 1024 : 0;
  bool resharded = false;
  std::string ckpt_dir;
  for (int64_t step = 0; step < kSweepSteps; ++step) {
    if (step == sc.interrupt_step) {
      switch (sc.interrupt) {
        case Interrupt::kNone:
        case Interrupt::kStorageFaults:  // the fault schedule runs throughout
          break;
        case Interrupt::kCheckpointResume: {
          ckpt_dir = testing::ScratchDir("mix_sweep");
          ASSERT_TRUE((*interrupted)->Checkpoint(ckpt_dir).ok());
          interrupted.value().reset();  // only the on-disk checkpoint survives
          Session::Options resumed = ScenarioOptions(sc, /*chaos=*/true);
          resumed.resume_dir = ckpt_dir;
          interrupted = Session::Create(std::move(resumed));
          ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
          break;
        }
        case Interrupt::kReshard: {
          const ParallelismSpec after{.dp = 2, .pp = 1, .cp = 1, .tp = 1};
          ASSERT_TRUE((*interrupted)->Reshard(after).ok());
          mesh = after;
          resharded = true;
          break;
        }
        case Interrupt::kLoaderKill: {
          const size_t victim = static_cast<size_t>(seed % (*interrupted)->num_loaders());
          Result<std::string> promoted = (*interrupted)->KillAndRecoverLoader(victim);
          ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
          break;
        }
      }
    }
    Result<PrefetchPipeline::Capture> capture = (*interrupted)->CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    Result<PrefetchPipeline::Capture> twin_capture = (*twin)->CaptureStep(step);
    ASSERT_TRUE(twin_capture.ok());
    // Plan stamps are a pure function of the schedule, whatever happened.
    EXPECT_EQ(capture->plan.mix_phase, oracle_view.PhaseIndexAt(step));
    EXPECT_EQ(capture->plan.pack_max_seq_len, oracle_view.ScaleAt(step));
    // Content identity holds across meshes: mixing precedes bucketing.
    EXPECT_EQ(PlanSampleIds(capture->plan), PlanSampleIds(twin_capture->plan));
    std::vector<RankBatch> streamed = StreamStep(**interrupted);
    std::vector<RankBatch> twin_streamed = StreamStep(**twin);
    if (!resharded) {
      // Same mesh: full byte identity with the undisturbed twin.
      ASSERT_EQ(streamed.size(), twin_streamed.size());
      for (size_t rank = 0; rank < streamed.size(); ++rank) {
        ExpectBatchesIdentical(streamed[rank], twin_streamed[rank]);
      }
    }
    // Always: byte identity with the scalar oracle on the live mesh (after a
    // reshard this is what pins down the rebuilt placement).
    ExpectMatchesReference(capture.value(), mesh, 2, 1024, decode_bound, streamed);
  }
  Planner::MixtureStatus mix = (*interrupted)->LastMixtureStatus();
  EXPECT_GE(mix.step, kSweepSteps - 1);
  EXPECT_EQ(mix.effective_weights.size(), 5u);
  if (!ckpt_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MixtureSweepTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace msd
