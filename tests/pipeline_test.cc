// Streaming API equivalence and pipeline behavior: batches served through
// per-rank DataClients at prefetch depth 2 must be byte-identical to a
// depth-0 session (the synchronous lockstep baseline, also read through
// clients) and to the scalar ReferenceDataPlane — including across a
// mid-stream Reshard() and a KillAndRecoverLoader() drain. Plus refcounted
// step retirement, async pulls, and backpressure bounds.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/api/session.h"
#include "src/constructor/reference_assembly.h"
#include "tests/batch_identity.h"

namespace msd {
namespace {

Session::Options PipelineOptions(int32_t prefetch_depth) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 2, .cp = 2, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 96;
  options.loader_workers = 1;
  options.prefetch_depth = prefetch_depth;
  return options;
}

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

// Replays a captured step (plan + pop slices) through the frozen scalar
// reference plane and checks every rank's streamed batch against it.
void ExpectMatchesReference(const PrefetchPipeline::Capture& capture,
                            const ParallelismSpec& spec, int32_t num_microbatches,
                            int32_t max_seq_len,
                            const std::vector<RankBatch>& streamed) {
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, num_microbatches);
  for (int32_t dp = 0; dp < spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = max_seq_len;
    ReferenceDataPlane reference(config, &tree);
    ASSERT_TRUE(
        reference.BuildStep(capture.plan, capture.slices_per_constructor[static_cast<size_t>(dp)])
            .ok());
    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      if (CoordOfRank(spec, rank).dp != dp) {
        continue;
      }
      Result<RankBatch> want = reference.GetBatch(rank, capture.plan.step);
      ASSERT_TRUE(want.ok());
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)], want.value());
    }
  }
}

TEST(PipelineEquivalenceTest, StreamingMatchesShimAndReference) {
  auto lockstep = Session::Create(PipelineOptions(/*prefetch_depth=*/0));
  auto stream = Session::Create(PipelineOptions(/*prefetch_depth=*/2));
  ASSERT_TRUE(lockstep.ok());
  ASSERT_TRUE(stream.ok());
  const ParallelismSpec spec = PipelineOptions(0).spec;
  for (int64_t step = 0; step < 3; ++step) {
    // Capture before consuming: the step retires once every rank fetched it.
    Result<PrefetchPipeline::Capture> capture = (*stream)->CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> streamed = StreamStep(**stream);
    std::vector<RankBatch> baseline = StreamStep(**lockstep);
    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)],
                             baseline[static_cast<size_t>(rank)]);
    }
    ExpectMatchesReference(capture.value(), spec, /*num_microbatches=*/2,
                           /*max_seq_len=*/1024, streamed);
  }
}

TEST(PipelineEquivalenceTest, ReshardMidStreamRebuildsPrefetchedSteps) {
  auto lockstep = Session::Create(PipelineOptions(0));
  auto stream = Session::Create(PipelineOptions(2));
  ASSERT_TRUE(lockstep.ok());
  ASSERT_TRUE(stream.ok());
  const ParallelismSpec before = PipelineOptions(0).spec;
  for (int64_t step = 0; step < 2; ++step) {
    std::vector<RankBatch> streamed = StreamStep(**stream);
    std::vector<RankBatch> baseline = StreamStep(**lockstep);
    for (int32_t rank = 0; rank < before.WorldSize(); ++rank) {
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)],
                             baseline[static_cast<size_t>(rank)]);
    }
  }
  // Mid-stream reshard: CP 2 -> 1 (world 8 -> 4). The streaming session has
  // steps 2..3 already prefetched; they must be rebuilt for the new mesh from
  // retained slices, not re-popped or dropped.
  ParallelismSpec after{.dp = 2, .pp = 2, .cp = 1, .tp = 1};
  ASSERT_TRUE((*stream)->Reshard(after).ok());
  ASSERT_TRUE((*lockstep)->Reshard(after).ok());
  for (int64_t step = 2; step < 4; ++step) {
    Result<PrefetchPipeline::Capture> capture = (*stream)->CaptureStep(step);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    std::vector<RankBatch> streamed = StreamStep(**stream);
    std::vector<RankBatch> baseline = StreamStep(**lockstep);
    for (int32_t rank = 0; rank < after.WorldSize(); ++rank) {
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)],
                             baseline[static_cast<size_t>(rank)]);
    }
    ExpectMatchesReference(capture.value(), after, 2, 1024, streamed);
  }
  // Full sequences are served post-reshard (cp=1: no slicing).
  Result<RankBatch> whole = (*stream)->client(0).value()->NextBatch();
  ASSERT_TRUE(whole.ok());
  const PackedSequence& seq = whole->microbatches[0].sequences[0];
  EXPECT_EQ(static_cast<int32_t>(seq.tokens.size()), seq.padded_to);
}

TEST(PipelineEquivalenceTest, RecoveryDrainKeepsEquivalence) {
  Session::Options lockstep_options = PipelineOptions(0);
  lockstep_options.enable_fault_tolerance = true;
  Session::Options stream_options = PipelineOptions(2);
  stream_options.enable_fault_tolerance = true;
  auto lockstep = Session::Create(lockstep_options);
  auto stream = Session::Create(stream_options);
  ASSERT_TRUE(lockstep.ok());
  ASSERT_TRUE(stream.ok());
  const ParallelismSpec spec = lockstep_options.spec;
  for (int64_t step = 0; step < 2; ++step) {
    StreamStep(**stream);
    StreamStep(**lockstep);
  }
  // The drain quiesces the producer mid-stream, so the kill cannot race an
  // in-flight pop; the shadow was mirrored for every produced (not just
  // consumed) step, so post-promotion pops match the depth-0 session exactly.
  Result<std::string> stream_promoted = (*stream)->KillAndRecoverLoader(0);
  Result<std::string> lockstep_promoted = (*lockstep)->KillAndRecoverLoader(0);
  ASSERT_TRUE(stream_promoted.ok()) << stream_promoted.status().ToString();
  ASSERT_TRUE(lockstep_promoted.ok());
  EXPECT_NE(stream_promoted->find("shadow_loader/"), std::string::npos);
  for (int64_t step = 2; step < 4; ++step) {
    std::vector<RankBatch> streamed = StreamStep(**stream);
    std::vector<RankBatch> baseline = StreamStep(**lockstep);
    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      ExpectBatchesIdentical(streamed[static_cast<size_t>(rank)],
                             baseline[static_cast<size_t>(rank)]);
    }
  }
}

// At depth 0 the first rank to pull a step builds it inline, and building a
// step evicts the one two behind it. A rank that runs ahead on its own thread
// must wait for the slower rank instead of evicting steps that rank has not
// fetched: both ranks still receive steps 0-3, byte-identical to depth 2.
TEST(PipelineEquivalenceTest, DepthZeroRunawayRankWaitsForSlowerRank) {
  Session::Options synchronous_options = PipelineOptions(0);
  synchronous_options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  Session::Options stream_options = synchronous_options;
  stream_options.prefetch_depth = 2;
  auto synchronous = Session::Create(synchronous_options);
  auto stream = Session::Create(stream_options);
  ASSERT_TRUE(synchronous.ok()) << synchronous.status().ToString();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  constexpr int64_t kSteps = 4;
  std::vector<std::vector<Result<RankBatch>>> pulled(2);
  auto pull_all = [&](int32_t rank) {
    DataClient* client = (*synchronous)->client(rank).value();
    for (int64_t step = 0; step < kSteps; ++step) {
      pulled[static_cast<size_t>(rank)].push_back(client->NextBatch());
    }
  };
  // Rank 0 runs ahead alone until it has pulled every step or blocks waiting
  // for rank 1 to fetch step 0; only then does rank 1 start pulling.
  std::future<void> rank0 = std::async(std::launch::async, pull_all, 0);
  rank0.wait_for(std::chrono::seconds(3));
  std::thread rank1(pull_all, 1);
  rank0.get();
  rank1.join();

  for (int64_t step = 0; step < kSteps; ++step) {
    std::vector<RankBatch> want = StreamStep(**stream);
    for (size_t rank = 0; rank < 2; ++rank) {
      const Result<RankBatch>& got = pulled[rank][static_cast<size_t>(step)];
      ASSERT_TRUE(got.ok()) << "rank " << rank << " pull " << step << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->step, step);
      ExpectBatchesIdentical(got.value(), want[rank]);
    }
  }
}

TEST(DataClientTest, RefcountedRetirementReleasesConsumedSteps) {
  Session::Options options = PipelineOptions(2);
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  DataClient* client = (*session)->client(0).value();
  EXPECT_EQ(client->rank(), 0);
  EXPECT_EQ(client->next_step(), 0);
  ASSERT_TRUE(client->NextBatch().ok());  // world=1: step 0 fully fetched
  ASSERT_TRUE(client->NextBatch().ok());
  EXPECT_EQ(client->next_step(), 2);
  PrefetchPipeline::Stats stats = (*session)->pipeline_stats();
  EXPECT_GE(stats.steps_produced, 2);
  EXPECT_GE(stats.steps_retired, 2);  // refcount complete => retired
  EXPECT_LE(stats.queue_depth, 2u);   // bounded by the prefetch depth
  // A retired step's plan/slices are gone; capture must fail loudly.
  EXPECT_EQ((*session)->CaptureStep(0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(DataClientTest, FloorRetiredStepReleasesEagerlyAfterFinalFetch) {
  // Sequential per-rank streaming: the final rank's claim advances the cursor
  // floor and retires the ticket *before* its fetch lands. The post-fetch
  // bookkeeping must still release the step's StepData right after that fetch
  // completes — one step earlier than the resident_steps eviction backstop.
  Session::Options options = PipelineOptions(2);
  options.spec = {.dp = 1, .pp = 2, .cp = 1, .tp = 1};  // world 2
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  for (int64_t step = 0; step < 3; ++step) {
    for (int32_t rank = 0; rank < 2; ++rank) {
      ASSERT_TRUE((*session)->client(rank).value()->NextBatch().ok());
    }
    // Every fully consumed step must already be gone from the constructors
    // (the release lands in the mailbox before this Ask).
    for (const std::vector<int64_t>& resident : (*session)->ConstructorResidentSteps()) {
      for (int64_t s : resident) {
        EXPECT_GT(s, step) << "step " << step << " survived its final fetch";
      }
    }
  }
  EXPECT_GE((*session)->pipeline_stats().steps_released, 3);
}

TEST(DataClientTest, AsyncPullsDeliverInStreamOrder) {
  Session::Options options = PipelineOptions(2);
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  DataClient* client = (*session)->client(0).value();
  std::future<Result<RankBatch>> pending = client->NextBatchAsync();
  Result<RankBatch> first = pending.get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->step, 0);
  Result<RankBatch> second = client->NextBatch();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->step, 1);
}

TEST(DataClientTest, RankStallHistogramCountsStreamingPulls) {
  Session::Options options = PipelineOptions(2);
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  DataClient* client = (*session)->client(0).value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->NextBatch().ok());
  }
  Result<Session::StepStats> stats = (*session)->StepStatsFor(client->next_step());
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->rank_stalls.size(), 1u);
  EXPECT_EQ(stats->rank_stalls[0].pulls, 3);
  EXPECT_LE(stats->rank_stalls[0].stalls, 3);
  EXPECT_GE(stats->rank_stalls[0].wait_ms, 0.0);
  // Stalled pulls and hit/stall counters agree in aggregate (the
  // StepStatsFor wait is pure observability and is not counted).
  PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
  EXPECT_EQ(pipeline.prefetch_hits + pipeline.prefetch_stalls, 3);
  EXPECT_EQ(stats->rank_stalls[0].stalls, pipeline.prefetch_stalls);
}

TEST(DataClientTest, RankBoundsAreChecked) {
  Session::Options options = PipelineOptions(2);
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->client(99).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*session)->client(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionOptionsTest, InvalidPrefetchDepthRejected) {
  Session::Options options = PipelineOptions(-1);
  EXPECT_EQ(Session::Create(std::move(options)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace msd
