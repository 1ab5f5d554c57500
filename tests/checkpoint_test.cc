// Durable checkpoint & elastic resume (src/checkpoint/):
//  - a run that checkpoints at step K, destroys the Session, and resumes on
//    the same mesh (even with a different prefetch depth) serves batches
//    byte-identical to an uninterrupted run;
//  - resuming on a resharded mesh (cp changed, dp unchanged) matches an
//    uninterrupted run that called Reshard() at K — the journaled in-flight
//    plans are replayed against the new mesh;
//  - resuming with a different DP degree deterministically replans from the
//    commit frontier: same per-step sample sets, batches validated against
//    the scalar ReferenceDataPlane on the new mesh;
//  - a crash injected between blob staging and manifest publish resumes
//    from the previous checkpoint;
//  - writer/reader round-trip, checksum verification, and fingerprint
//    validation fail loudly instead of corrupting the stream.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/checkpoint/checkpoint.h"
#include "src/constructor/reference_assembly.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory for one test's checkpoints; removed on teardown.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir("ckpt"); }
  // Runs after the test body's sessions are destroyed; the non-throwing
  // overload tolerates any leftover write race.
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::remove_all(dir_ + "-gcs", ec);
  }

  std::string dir_;
};

Session::Options BaseOptions(int32_t prefetch_depth = 2) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 12;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = prefetch_depth;
  return options;
}

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

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
// checks every rank's streamed batch against it.
void ExpectMatchesReference(const PrefetchPipeline::Capture& capture,
                            const ParallelismSpec& spec, int32_t num_microbatches,
                            int32_t max_seq_len, const std::vector<RankBatch>& streamed) {
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, num_microbatches);
  for (int32_t dp = 0; dp < spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = max_seq_len;
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

TEST_F(CheckpointTest, WriterReaderRoundTripAndCrashInjection) {
  ObjectStore store;  // in-memory: the codec itself is backend-agnostic
  CheckpointState state;
  state.commit_step = 7;
  state.produce_frontier = 9;
  state.mesh = {.dp = 2, .pp = 1, .cp = 2, .tp = 1};
  state.prefetch_depth = 2;
  state.cursors = {7, 7, 8, 7, 7, 7, 7, 7};
  state.planner_at_commit.rng_state = 0x1234;
  state.planner_at_commit.next_unplanned = 7;
  state.planner_at_commit.plans_generated = 7;
  state.planner_at_frontier.rng_state = 0x5678;
  state.planner_at_frontier.next_unplanned = 9;
  state.planner_at_frontier.plans_generated = 9;
  state.planner_at_frontier.quarantined = {{1, 8}};
  state.planner_at_frontier.gather_failures = {{2, 1}};
  state.loader_snapshots[0] = "snapshot-zero";
  state.loader_snapshots[3] = "snapshot-three";
  state.plan_journal[7] = "plan-seven";
  state.plan_journal[8] = "plan-eight";
  state.fault_tolerance = true;
  state.ft_snapshots_taken = 2;
  state.ft_promotions = 1;
  state.fingerprint.corpus_hash = 0xABCD;
  state.fingerprint.seed = 42;

  CheckpointWriter writer(&store);
  Result<std::string> id = writer.Write(state);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(CheckpointReader::LatestId(store).value(), id.value());

  Result<CheckpointState> loaded = CheckpointReader::Load(store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->commit_step, 7);
  EXPECT_EQ(loaded->produce_frontier, 9);
  EXPECT_EQ(loaded->mesh, state.mesh);
  EXPECT_EQ(loaded->cursors, state.cursors);
  EXPECT_EQ(loaded->planner_at_commit.rng_state, 0x1234u);
  EXPECT_EQ(loaded->planner_at_frontier.next_unplanned, 9);
  EXPECT_EQ(loaded->planner_at_frontier.quarantined, state.planner_at_frontier.quarantined);
  EXPECT_EQ(loaded->planner_at_frontier.gather_failures,
            state.planner_at_frontier.gather_failures);
  EXPECT_TRUE(loaded->planner_at_commit.quarantined.empty());
  EXPECT_EQ(loaded->loader_snapshots, state.loader_snapshots);
  EXPECT_EQ(loaded->plan_journal, state.plan_journal);
  EXPECT_TRUE(loaded->fault_tolerance);
  EXPECT_EQ(loaded->ft_promotions, 1);
  EXPECT_EQ(loaded->fingerprint, state.fingerprint);

  // Crash injection: a second checkpoint stages everything but never flips
  // LATEST — readers keep seeing the first one.
  state.commit_step = 20;
  CheckpointWriter crashing(&store, {.abort_before_publish = true});
  ASSERT_TRUE(crashing.Write(state).ok());
  Result<CheckpointState> after_crash = CheckpointReader::Load(store);
  ASSERT_TRUE(after_crash.ok());
  EXPECT_EQ(after_crash->commit_step, 7);
}

TEST_F(CheckpointTest, CorruptBlobAndManifestAreRejected) {
  ObjectStore store;
  CheckpointState state;
  state.commit_step = 3;
  state.produce_frontier = 3;
  state.loader_snapshots[1] = "loader-one-bytes";
  CheckpointWriter writer(&store);
  std::string id = writer.Write(state).value();

  // Flip a byte in a component blob: the checksum catches it.
  ASSERT_TRUE(store.Put(id + "/loader/1", "loader-one-bytEs").ok());
  EXPECT_EQ(CheckpointReader::Load(store).status().code(), StatusCode::kDataLoss);

  // Restore the blob, then flip one bit mid-manifest: the manifest's own
  // trailing checksum catches it before any field is trusted.
  ASSERT_TRUE(store.Put(id + "/loader/1", "loader-one-bytes").ok());
  std::string manifest = store.Open(id + "/manifest", 0).value().Contents();
  manifest[manifest.size() / 2] ^= 0x10;
  ASSERT_TRUE(store.Put(id + "/manifest", manifest).ok());
  EXPECT_EQ(CheckpointReader::Load(store).status().code(), StatusCode::kDataLoss);

  // Truncate the manifest: decode fails cleanly.
  ASSERT_TRUE(store.Put(id + "/manifest", "short").ok());
  EXPECT_EQ(CheckpointReader::Load(store).status().code(), StatusCode::kDataLoss);

  // No LATEST at all: NotFound, not a crash.
  ObjectStore empty;
  EXPECT_EQ(CheckpointReader::Load(empty).status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, SameMeshResumeIsByteIdenticalEvenWithNewDepth) {
  const int64_t kCheckpointAt = 3;
  const int64_t kResumedSteps = 3;
  auto uninterrupted = Session::Create(BaseOptions());
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    ExpectStepsIdentical(**session, **uninterrupted, kCheckpointAt);
    Result<std::string> id = (*session)->Checkpoint(dir_);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }  // Session destroyed: only the on-disk checkpoint survives.

  Session::Options resumed_options = BaseOptions(/*prefetch_depth=*/3);  // elastic depth
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int64_t s = kCheckpointAt; s < kCheckpointAt + kResumedSteps; ++s) {
    Result<PrefetchPipeline::Capture> capture = (*resumed)->CaptureStep(s);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> got = StreamStep(**resumed);
    std::vector<RankBatch> want = StreamStep(**uninterrupted);
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
    }
    ExpectMatchesReference(capture.value(), BaseOptions().spec, /*num_microbatches=*/2,
                           /*max_seq_len=*/1024, got);
  }
}

TEST_F(CheckpointTest, FluentResumeFromMatchesOptionsPath) {
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    StreamStep(**session);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }
  // A resume spelled out field by field (not a copy of the checkpointed
  // job's options) still matches its fingerprint.
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = BaseOptions().spec;
  options.num_microbatches = 2;
  options.samples_per_step = 12;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = 2;
  options.resume_dir = dir_;
  auto resumed = Session::Create(std::move(options));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Result<RankBatch> batch = (*resumed)->client(0).value()->NextBatch();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->step, 1);  // continues, does not restart
}

TEST_F(CheckpointTest, ReshardedResumeMatchesUninterruptedReshard) {
  const int64_t kCheckpointAt = 2;
  const int64_t kResumedSteps = 3;
  const ParallelismSpec new_mesh{.dp = 2, .pp = 1, .cp = 1, .tp = 1};  // cp 2 -> 1

  auto uninterrupted = Session::Create(BaseOptions());
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    ExpectStepsIdentical(**session, **uninterrupted, kCheckpointAt);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }
  // The uninterrupted job reshards in place at K; the dead job's checkpoint
  // is resumed straight onto the new mesh. The journaled in-flight plans are
  // replayed against it, so both must serve the same bytes.
  ASSERT_TRUE((*uninterrupted)->Reshard(new_mesh).ok());

  Session::Options resumed_options = BaseOptions();
  resumed_options.spec = new_mesh;
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int64_t s = kCheckpointAt; s < kCheckpointAt + kResumedSteps; ++s) {
    Result<PrefetchPipeline::Capture> capture = (*resumed)->CaptureStep(s);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> got = StreamStep(**resumed);
    std::vector<RankBatch> want = StreamStep(**uninterrupted);
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
    }
    ExpectMatchesReference(capture.value(), new_mesh, 2, 1024, got);
  }
}

TEST_F(CheckpointTest, DpChangeResumeReplansSameSamplesOnNewMesh) {
  const int64_t kCheckpointAt = 2;
  const int64_t kResumedSteps = 2;
  const ParallelismSpec new_mesh{.dp = 1, .pp = 1, .cp = 2, .tp = 1};  // dp 2 -> 1

  auto uninterrupted = Session::Create(BaseOptions());
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    ExpectStepsIdentical(**session, **uninterrupted, kCheckpointAt);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }

  Session::Options resumed_options = BaseOptions();
  resumed_options.spec = new_mesh;
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int64_t s = kCheckpointAt; s < kCheckpointAt + kResumedSteps; ++s) {
    Result<PrefetchPipeline::Capture> got_capture = (*resumed)->CaptureStep(s);
    Result<PrefetchPipeline::Capture> want_capture = (*uninterrupted)->CaptureStep(s);
    ASSERT_TRUE(got_capture.ok()) << got_capture.status().ToString();
    ASSERT_TRUE(want_capture.ok());
    // Source mixing precedes bucketing, so the replanned step draws the very
    // same samples — only their placement follows the new DP degree.
    EXPECT_EQ(PlanSampleIds(got_capture->plan), PlanSampleIds(want_capture->plan));
    EXPECT_EQ(got_capture->plan.num_buckets, new_mesh.dp);
    std::vector<RankBatch> got = StreamStep(**resumed);
    StreamStep(**uninterrupted);  // keep the reference stream step-aligned
    ExpectMatchesReference(got_capture.value(), new_mesh, 2, 1024, got);
  }
}

TEST_F(CheckpointTest, CrashBeforePublishResumesFromPreviousCheckpoint) {
  const int64_t kFirstCheckpoint = 2;
  const int64_t kSecondCheckpoint = 4;
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    for (int64_t s = 0; s < kFirstCheckpoint; ++s) {
      StreamStep(**session);
    }
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
    for (int64_t s = kFirstCheckpoint; s < kSecondCheckpoint; ++s) {
      StreamStep(**session);
    }
    // The "crash": every blob of the second checkpoint is staged, but the
    // process dies before the manifest pointer flip.
    CheckpointWriter::Options crash;
    crash.abort_before_publish = true;
    ASSERT_TRUE((*session)->Checkpoint(dir_, crash).ok());
  }

  // A fresh reference run fast-forwarded to the *first* checkpoint's step.
  auto reference = Session::Create(BaseOptions());
  ASSERT_TRUE(reference.ok());
  for (int64_t s = 0; s < kFirstCheckpoint; ++s) {
    StreamStep(**reference);
  }
  Session::Options resumed_options = BaseOptions();
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectStepsIdentical(**resumed, **reference, 2);
}

TEST_F(CheckpointTest, ResumeUnderFaultToleranceSurvivesLoaderKill) {
  Session::Options options = BaseOptions();
  options.enable_fault_tolerance = true;
  options.loader_snapshot_interval = 2;
  options.gcs_spill_dir = dir_ + "-gcs";  // journal write-through to disk
  auto uninterrupted = Session::Create(options);
  ASSERT_TRUE(uninterrupted.ok());
  {
    auto session = Session::Create(options);
    ASSERT_TRUE(session.ok());
    ExpectStepsIdentical(**session, **uninterrupted, 2);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }
  Session::Options resumed_options = options;
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectStepsIdentical(**resumed, **uninterrupted, 1);
  // The restored shadows mirror the rewound primaries, so failover after a
  // resume still serves the identical stream.
  Result<std::string> resumed_promoted = (*resumed)->KillAndRecoverLoader(0);
  Result<std::string> reference_promoted = (*uninterrupted)->KillAndRecoverLoader(0);
  ASSERT_TRUE(resumed_promoted.ok()) << resumed_promoted.status().ToString();
  ASSERT_TRUE(reference_promoted.ok());
  ExpectStepsIdentical(**resumed, **uninterrupted, 2);
  // The durable GCS spill carried plan-journal and loader-snapshot writes to
  // disk atomically (no half-written or staging files).
  ObjectStore spill(dir_ + "-gcs");
  EXPECT_FALSE(spill.List("gcs/planner/plan/").empty());
  EXPECT_FALSE(spill.List("gcs/ft/loader_snapshot/").empty());
}

TEST_F(CheckpointTest, DisabledJournalLeansOutTheProducerAndRejectsCheckpoint) {
  Session::Options options = BaseOptions();
  options.enable_checkpoint_journal = false;  // lean producer: no rewind asks
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  StreamStep(**session);
  EXPECT_EQ((*session)->Checkpoint(dir_).status().code(),
            StatusCode::kFailedPrecondition);
}

// Distinct "ckpt-<seq>-s<step>" generation prefixes currently in the store.
std::vector<std::string> Generations(const ObjectStore& store) {
  std::vector<std::string> generations;
  for (const std::string& name : store.List("ckpt-")) {
    size_t slash = name.find('/');
    if (slash == std::string::npos) {
      continue;
    }
    std::string gen = name.substr(0, slash);
    if (std::find(generations.begin(), generations.end(), gen) == generations.end()) {
      generations.push_back(std::move(gen));
    }
  }
  return generations;
}

TEST_F(CheckpointTest, RetentionKeepsNewestGenerationsAndSparesLatest) {
  ObjectStore store;
  CheckpointState state;
  state.loader_snapshots[0] = "snapshot";
  CheckpointWriter::Options keep2;
  keep2.keep_generations = 2;
  CheckpointWriter writer(&store, keep2);
  for (int64_t step = 1; step <= 4; ++step) {
    state.commit_step = step;
    ASSERT_TRUE(writer.Write(state).ok());
  }
  // Only the two newest generations survive, and LATEST still loads.
  EXPECT_EQ(Generations(store).size(), 2u);
  Result<CheckpointState> loaded = CheckpointReader::Load(store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->commit_step, 4);
}

TEST_F(CheckpointTest, RetentionNeverRunsOnAbortedPublishAndSparesLatest) {
  ObjectStore store;
  CheckpointState state;
  state.commit_step = 1;
  CheckpointWriter published(&store);
  ASSERT_TRUE(published.Write(state).ok());  // gen 1, LATEST -> 1

  // A crash-injected write with aggressive retention must not GC: the flip
  // never happened, so deleting would orphan the only good checkpoint.
  CheckpointWriter::Options crash_keep1;
  crash_keep1.abort_before_publish = true;
  crash_keep1.keep_generations = 1;
  state.commit_step = 2;
  ASSERT_TRUE(CheckpointWriter(&store, crash_keep1).Write(state).ok());
  EXPECT_EQ(Generations(store).size(), 2u);  // staged orphan + good gen
  ASSERT_TRUE(CheckpointReader::Load(store).ok());
  EXPECT_EQ(CheckpointReader::Load(store)->commit_step, 1);

  // The next successful publish GCs both the orphan and the old generation,
  // keeping exactly what LATEST names.
  CheckpointWriter::Options keep1;
  keep1.keep_generations = 1;
  state.commit_step = 3;
  Result<std::string> id = CheckpointWriter(&store, keep1).Write(state);
  ASSERT_TRUE(id.ok());
  std::vector<std::string> generations = Generations(store);
  ASSERT_EQ(generations.size(), 1u);
  EXPECT_EQ(generations[0], id.value());
  EXPECT_EQ(CheckpointReader::Load(store)->commit_step, 3);
}

TEST_F(CheckpointTest, AutoCheckpointResumesFromLatestGenerationAfterKill) {
  const int64_t kSteps = 6;
  const int64_t kReferenceSteps = kSteps + 6;  // covers resumed re-serves
  Session::Options options = BaseOptions();
  options.auto_checkpoint_dir = dir_;
  options.auto_checkpoint_every = 2;
  options.checkpoint_keep_generations = 2;
  const int32_t world = options.spec.WorldSize();

  // Reference: an uninterrupted run of the same stream, batches kept per
  // (step, rank) so resumed ranks can be checked wherever their cursor lands.
  auto reference = Session::Create(BaseOptions());
  ASSERT_TRUE(reference.ok());
  std::vector<std::vector<RankBatch>> want;
  for (int64_t s = 0; s < kReferenceSteps; ++s) {
    want.push_back(StreamStep(**reference));
  }

  {
    auto session = Session::Create(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int64_t s = 0; s < kSteps; ++s) {
      StreamStep(**session);
    }
  }  // mid-stream kill: no explicit Checkpoint() call anywhere

  // The periodic save published at least one generation, retention kept at
  // most the configured two, and the newest loads cleanly.
  ObjectStore ckpt_store(dir_);
  std::vector<std::string> generations = Generations(ckpt_store);
  ASSERT_FALSE(generations.empty());
  EXPECT_LE(generations.size(), 2u);
  Result<CheckpointState> latest = CheckpointReader::Load(ckpt_store);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();

  // Resume from the latest auto-saved generation; every rank continues from
  // its saved cursor and the re-served stream matches the reference bytes.
  // Drain step-by-step ACROSS ranks: a single rank pulled kSteps ahead of
  // parked neighbours would pin the retire floor and exhaust the bounded
  // prefetch window — a consumer-side deadlock, not a pipeline bug.
  Session::Options resumed_options = options;
  resumed_options.resume_dir = dir_;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  std::vector<DataClient*> clients;
  for (int32_t rank = 0; rank < world; ++rank) {
    clients.push_back((*resumed)->client(rank).value());
    ASSERT_GE(clients.back()->next_step(), latest->commit_step);
  }
  bool drained = false;
  while (!drained) {
    drained = true;
    for (int32_t rank = 0; rank < world; ++rank) {
      if (clients[static_cast<size_t>(rank)]->next_step() > kSteps) {
        continue;
      }
      drained = false;
      Result<RankBatch> got = clients[static_cast<size_t>(rank)]->NextBatch();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_LT(got->step, kReferenceSteps);
      ExpectBatchesIdentical(got.value(),
                             want[static_cast<size_t>(got->step)][static_cast<size_t>(rank)]);
    }
  }
}

TEST_F(CheckpointTest, AutoCheckpointRejectsUnsupportedConfigurations) {
  Session::Options missing_interval = BaseOptions();
  missing_interval.auto_checkpoint_dir = dir_;
  EXPECT_EQ(Session::Create(std::move(missing_interval)).status().code(),
            StatusCode::kInvalidArgument);

  Session::Options no_journal = BaseOptions();
  no_journal.auto_checkpoint_dir = dir_;
  no_journal.auto_checkpoint_every = 2;
  no_journal.enable_checkpoint_journal = false;
  EXPECT_EQ(Session::Create(std::move(no_journal)).status().code(),
            StatusCode::kInvalidArgument);

  Session::Options synchronous = BaseOptions(/*prefetch_depth=*/0);
  synchronous.auto_checkpoint_dir = dir_;
  synchronous.auto_checkpoint_every = 2;
  EXPECT_EQ(Session::Create(std::move(synchronous)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, ResumeRejectsMismatchedOptions) {
  {
    auto session = Session::Create(BaseOptions());
    ASSERT_TRUE(session.ok());
    StreamStep(**session);
    ASSERT_TRUE((*session)->Checkpoint(dir_).ok());
  }
  Session::Options wrong = BaseOptions();
  wrong.samples_per_step = 20;  // stream-shaping option changed
  wrong.resume_dir = dir_;
  EXPECT_EQ(Session::Create(std::move(wrong)).status().code(),
            StatusCode::kFailedPrecondition);

  Session::Options missing = BaseOptions();
  missing.resume_dir = dir_ + "/nonexistent";
  EXPECT_EQ(Session::Create(std::move(missing)).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace msd
