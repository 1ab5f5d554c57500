// End-to-end integration tests over the public msd::Session API: real
// corpus materialization, actor pipeline, batch delivery, parallelism
// transformations, and failure recovery.
#include <gtest/gtest.h>

#include <set>

#include "src/api/session.h"
#include "tests/batch_identity.h"

namespace msd {
namespace {

using testing::StreamStep;

Session::Options SmallOptions() {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.num_microbatches = 2;
  options.samples_per_step = 16;
  options.max_seq_len = 2048;
  options.rows_per_file_override = 48;
  options.loader_workers = 1;
  return options;
}

TEST(SessionTest, CreateAndAdvance) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_GE((*session)->num_loaders(), 5u);  // at least one per source
  Result<Session::StepStats> stats = (*session)->StepStatsFor(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->samples, 16u);
  std::vector<RankBatch> batches = StreamStep(**session);
  EXPECT_EQ(batches[0].step, 0);
}

TEST(SessionTest, BatchesDeliverRealTokens) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  std::set<uint64_t> all_samples;
  for (const RankBatch& batch : StreamStep(**session)) {
    EXPECT_EQ(batch.microbatches.size(), 2u);
    for (const Microbatch& mb : batch.microbatches) {
      for (const PackedSequence& seq : mb.sequences) {
        EXPECT_FALSE(seq.tokens.empty());
        EXPECT_EQ(seq.tokens.size(), seq.position_ids.size());
        for (uint64_t id : seq.sample_ids) {
          all_samples.insert(id);
        }
      }
    }
  }
  EXPECT_EQ(all_samples.size(), 16u);  // whole global batch delivered once
}

TEST(SessionTest, MultipleStepsDeliverFreshSamples) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  std::set<uint64_t> seen;
  for (int step = 0; step < 4; ++step) {
    RankBatch batch = StreamStep(**session)[0];
    for (const Microbatch& mb : batch.microbatches) {
      for (const PackedSequence& seq : mb.sequences) {
        for (uint64_t id : seq.sample_ids) {
          EXPECT_TRUE(seen.insert(id).second) << "sample served twice";
        }
      }
    }
  }
}

TEST(SessionTest, HybridBalanceReducesImbalance) {
  Session::Options vanilla = SmallOptions();
  vanilla.strategy = Session::StrategyKind::kVanilla;
  vanilla.spec = {.dp = 4, .pp = 1, .cp = 1, .tp = 1};
  vanilla.samples_per_step = 32;
  Session::Options balanced = vanilla;
  balanced.strategy = Session::StrategyKind::kBackboneBalance;

  auto v = Session::Create(vanilla);
  auto b = Session::Create(balanced);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(b.ok());
  // Average imbalance over several steps: vanilla has no cost annotations, so
  // compare the balanced session against the theoretical 1.0.
  double balanced_total = 0.0;
  for (int step = 0; step < 4; ++step) {
    Result<Session::StepStats> stats = (*b)->StepStatsFor(step);
    ASSERT_TRUE(stats.ok());
    balanced_total += stats->dp_imbalance;
    StreamStep(**b);
    StreamStep(**v);
  }
  EXPECT_LT(balanced_total / 4.0, 1.25);
}

TEST(SessionTest, CpRanksReceiveSlicedSequences) {
  Session::Options options = SmallOptions();
  options.spec = {.dp = 1, .pp = 1, .cp = 2, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  std::vector<RankBatch> batches = StreamStep(**session);
  const RankBatch& cp0 = batches[0];
  const RankBatch& cp1 = batches[1];
  ASSERT_FALSE(cp0.microbatches.empty());
  ASSERT_FALSE(cp0.microbatches[0].sequences.empty());
  const PackedSequence& s0 = cp0.microbatches[0].sequences[0];
  const PackedSequence& s1 = cp1.microbatches[0].sequences[0];
  EXPECT_EQ(s0.sample_ids, s1.sample_ids);
  EXPECT_EQ(static_cast<int32_t>(s0.tokens.size() + s1.tokens.size()), s0.padded_to);
}

TEST(SessionTest, PpStageOneGetsMetadataOnly) {
  Session::Options options = SmallOptions();
  options.spec = {.dp = 1, .pp = 2, .cp = 1, .tp = 1};
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  std::vector<RankBatch> batches = StreamStep(**session);
  EXPECT_FALSE(batches[0].metadata_only);
  EXPECT_TRUE(batches[1].metadata_only);
}

TEST(SessionTest, HybridStrategyWorksEndToEnd) {
  Session::Options options = SmallOptions();
  options.strategy = Session::StrategyKind::kHybridBalance;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->client(0).value()->NextBatch().ok());
}

TEST(SessionTest, CurriculumScheduleShiftsSources) {
  Session::Options options = SmallOptions();
  // Stage 0: only source 0; stage >= 2: only source 4.
  options.schedule = std::make_shared<StagedMix>(std::vector<StagedMix::Stage>{
      {0, {1, 0, 0, 0, 0}}, {2, {0, 0, 0, 0, 1}}});
  options.samples_per_step = 8;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());

  auto sources_served = [&]() {
    std::set<int32_t> sources;
    RankBatch batch = StreamStep(**session)[0];
    for (const Microbatch& mb : batch.microbatches) {
      for (const PackedSequence& seq : mb.sequences) {
        for (uint64_t id : seq.sample_ids) {
          sources.insert(static_cast<int32_t>(id >> 40));  // generator id scheme
        }
      }
    }
    return sources;
  };
  std::set<int32_t> early = sources_served();  // step 0
  StreamStep(**session);                       // step 1
  std::set<int32_t> late = sources_served();   // step 2
  EXPECT_TRUE(early.count(0) > 0 && early.size() <= 2);
  EXPECT_TRUE(late.count(4) > 0);
  EXPECT_EQ(late.count(0), 0u);
}

TEST(SessionTest, StepStatsExposePipelineObservability) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  const int kSteps = 3;
  const int32_t world = (*session)->tree().spec().WorldSize();
  for (int step = 0; step < kSteps; ++step) {
    Result<Session::StepStats> stats = (*session)->StepStatsFor(step);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->prefetch_depth, 2);  // SmallOptions default
    EXPECT_LE(stats->prefetch_queue_depth, 2u);  // bounded by the depth
    EXPECT_GT(stats->build_ahead_ms, 0.0);       // plan+pop+build was measured
    StreamStep(**session);
    // Every pull is classified as exactly one hit or stall (the StepStatsFor
    // wait is pure observability and is not counted).
    PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
    EXPECT_EQ(pipeline.prefetch_hits + pipeline.prefetch_stalls, (step + 1) * world);
  }
  PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
  EXPECT_GE(pipeline.steps_produced, kSteps);
  EXPECT_GE(pipeline.steps_retired, kSteps);  // every rank consumed every step
}

TEST(SessionTest, SynchronousDepthZeroAlwaysStalls) {
  Session::Options options = SmallOptions();
  options.prefetch_depth = 0;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  for (int step = 0; step < 2; ++step) {
    StreamStep(**session);
  }
  // No build-ahead: rank 0's pull produced every step on demand (one stall
  // per step), and the other rank found it already built.
  PrefetchPipeline::Stats pipeline = (*session)->pipeline_stats();
  EXPECT_EQ(pipeline.prefetch_stalls, 2);
  EXPECT_EQ(pipeline.prefetch_hits, 2);
  ASSERT_EQ(pipeline.rank_stalls.size(), 2u);
  EXPECT_EQ(pipeline.rank_stalls[0].stalls, 2);
  EXPECT_EQ(pipeline.rank_stalls[1].stalls, 0);
}

TEST(SessionTest, MemoryAccountedPerCategory) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  // Step 0 is built but not yet consumed, so its batch buffers are resident
  // (consuming it would release them before the next build lands).
  ASSERT_TRUE((*session)->StepStatsFor(0).ok());
  const MemoryAccountant& memory = (*session)->memory();
  EXPECT_GT(memory.CategoryTotal(MemCategory::kFileSocket), 0);
  EXPECT_GT(memory.CategoryTotal(MemCategory::kFileMetadata), 0);
  EXPECT_GT(memory.CategoryTotal(MemCategory::kWorkerContext), 0);
  EXPECT_GT(memory.CategoryTotal(MemCategory::kBatchBuffer), 0);
}

TEST(SessionTest, FaultRecoveryKeepsDelivering) {
  Session::Options options = SmallOptions();
  options.enable_fault_tolerance = true;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  StreamStep(**session);
  Result<std::string> promoted = (*session)->KillAndRecoverLoader(0);
  ASSERT_TRUE(promoted.ok());
  EXPECT_NE(promoted->find("shadow_loader/"), std::string::npos);
  // Delivery continues across the failure.
  for (int step = 1; step < 4; ++step) {
    std::vector<RankBatch> batches = StreamStep(**session);
    EXPECT_EQ(batches[0].step, step);
  }
}

TEST(SessionTest, FaultRecoveryRequiresFtEnabled) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->KillAndRecoverLoader(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, EmptyCorpusRejected) {
  Session::Options options;
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  EXPECT_EQ(Session::Create(options).status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, AutoPartitioningProducedPartitions) {
  auto session = Session::Create(SmallOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->partitions().size(), 5u);
  for (const LoaderPartition& p : (*session)->partitions()) {
    EXPECT_GE(p.num_actors, 1);
    EXPECT_GE(p.workers_per_actor, 1);
  }
}

}  // namespace
}  // namespace msd
