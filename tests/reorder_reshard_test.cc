// Tests for the Sec. 6 deployment features: transformation reordering
// (deferred image decode) and elastic resharding.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/session.h"
#include "tests/batch_identity.h"

namespace msd {
namespace {

using testing::StreamStep;

class DeferredDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = MakeCoyo700m().sources[0];
    spec_.num_files = 1;
    spec_.rows_per_file = 24;
    ASSERT_TRUE(WriteSourceFiles(store_, spec_, 7).ok());
  }

  SourceLoaderConfig LoaderConfig(bool defer) {
    SourceLoaderConfig config;
    config.loader_id = 0;
    config.spec = spec_;
    config.files = {SourceFileName(spec_, 0)};
    config.num_workers = 1;
    config.buffer_low_watermark = 8;
    config.defer_image_decode = defer;
    return config;
  }

  SourceSpec spec_;
  MemoryAccountant memory_;
  ObjectStore store_{&memory_};
};

TEST_F(DeferredDecodeTest, LoaderShipsCompressedBytes) {
  SourceLoader loader(LoaderConfig(/*defer=*/true), &store_, &memory_);
  ASSERT_TRUE(loader.Open().ok());
  BufferInfo info = loader.SummaryBuffer();
  Result<SampleSlice> slice = loader.PopSamples(0, {info.samples[0].sample_id});
  ASSERT_TRUE(slice.ok());
  const Sample& s = *slice->samples[0];
  EXPECT_FALSE(s.tokens.empty());   // tokenization still ran in the loader
  EXPECT_TRUE(s.pixels.empty());    // decode deferred
  EXPECT_FALSE(s.raw_image.empty());
}

TEST_F(DeferredDecodeTest, DeferredSliceIsSmallerThanDecoded) {
  SourceLoader deferred(LoaderConfig(true), &store_, &memory_);
  SourceLoaderConfig eager_config = LoaderConfig(false);
  eager_config.name_override = "source_loader/eager#0";
  SourceLoader eager(eager_config, &store_, &memory_);
  ASSERT_TRUE(deferred.Open().ok());
  ASSERT_TRUE(eager.Open().ok());
  uint64_t id = deferred.SummaryBuffer().samples[0].sample_id;
  int64_t deferred_bytes = deferred.PopSamples(0, {id})->samples[0]->PayloadBytes();
  int64_t eager_bytes = eager.PopSamples(0, {id})->samples[0]->PayloadBytes();
  EXPECT_LT(deferred_bytes, eager_bytes);  // the point of reordering (Sec. 6.2)
}

TEST_F(DeferredDecodeTest, ConstructorDecodesDeferredImages) {
  SourceLoader loader(LoaderConfig(true), &store_, &memory_);
  ASSERT_TRUE(loader.Open().ok());
  BufferInfo info = loader.SummaryBuffer();

  LoadingPlan plan;
  plan.step = 0;
  plan.axis = Axis::kDP;
  plan.num_buckets = 1;
  plan.num_microbatches = 1;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    SliceAssignment a;
    a.sample_id = info.samples[static_cast<size_t>(i)].sample_id;
    a.loader_id = 0;
    a.bucket = 0;
    a.microbatch = 0;
    a.total_tokens = info.samples[static_cast<size_t>(i)].TotalTokens();
    plan.assignments.push_back(a);
    ids.push_back(a.sample_id);
  }
  Result<SampleSlice> slice = loader.PopSamples(0, ids);
  ASSERT_TRUE(slice.ok());

  auto tree = ClientPlaceTree::FromDeviceMesh({.dp = 1, .pp = 1, .cp = 1, .tp = 1}, 1);
  DataConstructor dc({}, &tree, &memory_);
  ASSERT_TRUE(dc.BuildStep(plan, {std::move(slice.value())}).ok());
  RankBatch batch = dc.GetBatch(0, 0).value();
  ASSERT_FALSE(batch.microbatches.empty());
  EXPECT_FALSE(batch.microbatches[0].sequences.empty());  // assembly succeeded
}

TEST(SessionReorderTest, EndToEndWithDeferredDecode) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.samples_per_step = 12;
  options.rows_per_file_override = 48;
  options.defer_image_decode = true;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  RankBatch batch = StreamStep(**session)[0];
  EXPECT_FALSE(batch.microbatches.empty());
}

TEST(SessionReshardTest, CpReshardTakesEffectNextStep) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.samples_per_step = 12;
  options.rows_per_file_override = 64;
  options.max_seq_len = 1024;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  RankBatch before = StreamStep(**session)[0];
  const PackedSequence& full = before.microbatches[0].sequences[0];
  EXPECT_EQ(static_cast<int32_t>(full.tokens.size()), full.padded_to);

  // Grow CP 1 -> 2 (e.g. the job was resharded for longer contexts).
  ASSERT_TRUE((*session)->Reshard({.dp = 2, .pp = 1, .cp = 2, .tp = 1}).ok());
  std::vector<RankBatch> after = StreamStep(**session);
  const RankBatch& cp0 = after[0];
  const RankBatch& cp1 = after[1];  // now (dp0, cp1)
  const PackedSequence& half0 = cp0.microbatches[0].sequences[0];
  const PackedSequence& half1 = cp1.microbatches[0].sequences[0];
  EXPECT_EQ(half0.sample_ids, half1.sample_ids);
  EXPECT_EQ(static_cast<int32_t>(half0.tokens.size() + half1.tokens.size()),
            half0.padded_to);
}

TEST(SessionReshardTest, DpChangeRejected) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 2, .pp = 1, .cp = 1, .tp = 1};
  options.rows_per_file_override = 32;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->Reshard({.dp = 4, .pp = 1, .cp = 1, .tp = 1}).code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionReshardTest, OldStepsDroppedAfterReshard) {
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 1, .pp = 1, .cp = 1, .tp = 1};
  options.samples_per_step = 8;
  options.rows_per_file_override = 48;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok());
  StreamStep(**session);
  ASSERT_TRUE((*session)->Reshard({.dp = 1, .pp = 2, .cp = 1, .tp = 1}).ok());
  // The consumed pre-reshard step is gone; only the prefetched steps,
  // rebuilt for the new mesh, stay resident.
  for (const std::vector<int64_t>& resident : (*session)->ConstructorResidentSteps()) {
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 0), 0);
  }
  std::vector<RankBatch> batches = StreamStep(**session);
  EXPECT_EQ(batches[0].step, 1);
  EXPECT_TRUE(batches[1].metadata_only);  // new PP stage
}

}  // namespace
}  // namespace msd
