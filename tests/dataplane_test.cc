// Zero-copy data plane: golden equivalence against the scalar reference
// assembly, aliasing/copy-budget guarantees (tokens AND pixels), arena
// on/off byte-identity, and PopSamples regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "src/api/session.h"
#include "src/constructor/reference_assembly.h"
#include "src/data/synthetic.h"
#include "src/loader/source_loader.h"
#include "src/mesh/selective_broadcast.h"
#include "tests/batch_identity.h"
#include "tests/scratch_dir.h"

namespace msd {
namespace {

// A small two-source corpus materialized into the object store, with one
// loader per source and a hand-rolled plan spreading samples over every
// (bucket, microbatch) bin of the mesh.
class DataPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusSpec corpus = MakeCoyo700m();
    specs_ = {corpus.sources[0], corpus.sources[1]};
    for (SourceSpec& spec : specs_) {
      spec.num_files = 1;
      spec.rows_per_file = 24;
      ASSERT_TRUE(WriteSourceFiles(store_, spec, /*seed=*/11,
                                   {.target_row_group_bytes = 256 * kKiB})
                      .ok());
    }
  }

  std::unique_ptr<SourceLoader> MakeLoader(size_t source_index, bool arena_decode = true) {
    SourceLoaderConfig config;
    config.loader_id = static_cast<int32_t>(source_index);
    config.spec = specs_[source_index];
    config.files = {SourceFileName(specs_[source_index], 0)};
    config.num_workers = 1;
    config.buffer_low_watermark = 48;  // keep the whole file buffered
    config.arena_decode = arena_decode;
    config.name_override = std::string(arena_decode ? "arena/" : "legacy/") +
                           config.spec.name + "#" + std::to_string(config.loader_id);
    auto loader = std::make_unique<SourceLoader>(config, &store_, &memory_);
    EXPECT_TRUE(loader->Open().ok());
    return loader;
  }

  // Round-robins every buffered sample of every loader over the plan's
  // (bucket, microbatch) bins.
  LoadingPlan MakePlan(const std::vector<SourceLoader*>& loaders, int32_t num_buckets,
                       int32_t num_microbatches) {
    LoadingPlan plan;
    plan.step = 0;
    plan.axis = Axis::kDP;
    plan.num_buckets = num_buckets;
    plan.num_microbatches = num_microbatches;
    int32_t i = 0;
    for (SourceLoader* loader : loaders) {
      for (const SampleMeta& meta : loader->SummaryBuffer().samples) {
        SliceAssignment a;
        a.sample_id = meta.sample_id;
        a.source_id = meta.source_id;
        a.loader_id = loader->config().loader_id;
        a.bucket = i % num_buckets;
        a.microbatch = (i / num_buckets) % num_microbatches;
        a.total_tokens = meta.TotalTokens();
        a.image_tokens = meta.image_tokens;
        a.cost = a.total_tokens;
        plan.assignments.push_back(a);
        ++i;
      }
    }
    std::stable_sort(plan.assignments.begin(), plan.assignments.end(),
                     [](const SliceAssignment& x, const SliceAssignment& y) {
                       return std::make_pair(x.bucket, x.microbatch) <
                              std::make_pair(y.bucket, y.microbatch);
                     });
    return plan;
  }

  // Pops the samples one constructor's owned buckets need, one slice per
  // loader (what the prefetch pipeline's producer does per step).
  std::vector<SampleSlice> PopFor(const LoadingPlan& plan,
                                  const std::vector<int32_t>& owned,
                                  const std::vector<SourceLoader*>& loaders) {
    std::vector<SampleSlice> slices;
    for (SourceLoader* loader : loaders) {
      std::vector<uint64_t> ids;
      for (const SliceAssignment& a : plan.assignments) {
        bool mine = std::find(owned.begin(), owned.end(), a.bucket) != owned.end();
        if (mine && a.loader_id == loader->config().loader_id) {
          ids.push_back(a.sample_id);
        }
      }
      if (ids.empty()) {
        continue;
      }
      Result<SampleSlice> slice = loader->PopSamples(plan.step, ids);
      EXPECT_TRUE(slice.ok()) << slice.status().ToString();
      slices.push_back(std::move(slice.value()));
    }
    return slices;
  }

  std::vector<SourceSpec> specs_;
  MemoryAccountant memory_;
  ObjectStore store_{&memory_};
};

using testing::ExpectBatchesIdentical;
using testing::StreamStep;

TEST_F(DataPlaneTest, GoldenEquivalenceOnCpPpMesh) {
  ParallelismSpec spec{.dp = 2, .pp = 2, .cp = 2, .tp = 1};
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, 2);
  auto l0 = MakeLoader(0);
  auto l1 = MakeLoader(1);
  std::vector<SourceLoader*> loaders = {l0.get(), l1.get()};
  LoadingPlan plan = MakePlan(loaders, tree.NumBuckets(Axis::kDP), 2);

  for (int32_t dp = 0; dp < spec.dp; ++dp) {
    DataConstructorConfig config;
    config.constructor_id = dp;
    config.max_seq_len = 512;
    DataConstructor dc(config, &tree, &memory_);
    ReferenceDataPlane reference(config, &tree);

    std::vector<SampleSlice> slices = PopFor(plan, dc.OwnedBuckets(plan), loaders);
    ASSERT_FALSE(slices.empty());
    // The reference plane deep-copies out of the shared slices, so both
    // planes can consume the same pop.
    ASSERT_TRUE(reference.BuildStep(plan, slices).ok());

    ResetSampleCopyCount();
    ASSERT_TRUE(dc.BuildStep(plan, std::move(slices)).ok());

    for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
      if (CoordOfRank(spec, rank).dp != dp) {
        continue;
      }
      Result<RankBatch> got = dc.GetBatch(rank, 0);
      Result<RankBatch> want = reference.GetBatch(rank, 0);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ExpectBatchesIdentical(got.value(), want.value());
    }
    // The zero-copy plane never copied a Sample between pop and get-batch.
    EXPECT_EQ(SampleCopyCount(), 0);
  }
}

TEST_F(DataPlaneTest, TpReplicasAliasOneBuffer) {
  ParallelismSpec spec{.dp = 1, .pp = 1, .cp = 1, .tp = 2};
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, 2);
  auto loader = MakeLoader(0);
  std::vector<SourceLoader*> loaders = {loader.get()};
  LoadingPlan plan = MakePlan(loaders, tree.NumBuckets(Axis::kDP), 2);

  DataConstructor dc({}, &tree, &memory_);
  ASSERT_TRUE(dc.BuildStep(plan, PopFor(plan, dc.OwnedBuckets(plan), loaders)).ok());
  RankBatch tp0 = dc.GetBatch(0, 0).value();
  RankBatch tp1 = dc.GetBatch(1, 0).value();
  ASSERT_FALSE(tp0.microbatches.empty());
  ASSERT_FALSE(tp0.microbatches[0].sequences.empty());
  const PackedSequence& s0 = tp0.microbatches[0].sequences[0];
  const PackedSequence& s1 = tp1.microbatches[0].sequences[0];
  EXPECT_EQ(s0.tokens, s1.tokens);
  // Not merely equal content: the replicas share the frozen step buffer.
  EXPECT_TRUE(s0.tokens.AliasesStorageOf(s1.tokens));
  EXPECT_TRUE(s0.position_ids.AliasesStorageOf(s1.position_ids));
}

TEST_F(DataPlaneTest, RepeatFetchesShareZigZagSlices) {
  ParallelismSpec spec{.dp = 1, .pp = 1, .cp = 2, .tp = 1};
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, 2);
  auto loader = MakeLoader(0);
  std::vector<SourceLoader*> loaders = {loader.get()};
  LoadingPlan plan = MakePlan(loaders, tree.NumBuckets(Axis::kDP), 2);

  DataConstructor dc({}, &tree, &memory_);
  ASSERT_TRUE(dc.BuildStep(plan, PopFor(plan, dc.OwnedBuckets(plan), loaders)).ok());
  // Zig-zag CP slices are materialized once per coordinate; a re-fetch for
  // the same rank aliases the cached slice instead of re-copying.
  RankBatch first = dc.GetBatch(0, 0).value();
  RankBatch again = dc.GetBatch(0, 0).value();
  const PackedSequence& a = first.microbatches[0].sequences[0];
  const PackedSequence& b = again.microbatches[0].sequences[0];
  EXPECT_TRUE(a.tokens.AliasesStorageOf(b.tokens));
}

TEST_F(DataPlaneTest, PopPreservesBufferOrder) {
  auto loader = MakeLoader(0);
  std::vector<SampleMeta> before = loader->SummaryBuffer().samples;
  ASSERT_GE(before.size(), 8u);
  // Pop a scattered subset, requested in REVERSE buffer order.
  std::vector<uint64_t> ids = {before[6].sample_id, before[3].sample_id,
                               before[0].sample_id};
  Result<SampleSlice> slice = loader->PopSamples(0, ids);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->samples.size(), 3u);
  // Popped samples come out in buffer order, not request order.
  EXPECT_EQ(slice->samples[0]->meta.sample_id, before[0].sample_id);
  EXPECT_EQ(slice->samples[1]->meta.sample_id, before[3].sample_id);
  EXPECT_EQ(slice->samples[2]->meta.sample_id, before[6].sample_id);
  // Remaining samples keep their relative order.
  std::vector<uint64_t> expected;
  for (const SampleMeta& m : before) {
    if (m.sample_id != ids[0] && m.sample_id != ids[1] && m.sample_id != ids[2]) {
      expected.push_back(m.sample_id);
    }
  }
  std::vector<SampleMeta> after = loader->SummaryBuffer().samples;
  ASSERT_GE(after.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after[i].sample_id, expected[i]);
  }
}

TEST_F(DataPlaneTest, PopDuplicateIdsRejectedAndBufferIntact) {
  auto loader = MakeLoader(0);
  size_t buffered = loader->buffered_samples();
  uint64_t id = loader->SummaryBuffer().samples[0].sample_id;
  EXPECT_EQ(loader->PopSamples(0, {id, id}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loader->buffered_samples(), buffered);  // nothing was consumed
}

TEST_F(DataPlaneTest, SnapshotRestoreAfterPartialConsumption) {
  auto loader = MakeLoader(0);
  std::vector<SampleMeta> initial = loader->SummaryBuffer().samples;
  // Partial consumption: a strict subset, out of buffer order.
  ASSERT_TRUE(loader
                  ->PopSamples(0, {initial[5].sample_id, initial[1].sample_id,
                                   initial[2].sample_id})
                  .ok());
  LoaderSnapshot snap = loader->Snapshot();
  EXPECT_EQ(snap.consumed_ids.size(), 3u);
  std::vector<SampleMeta> at_snapshot = loader->SummaryBuffer().samples;

  // More consumption after the snapshot must not leak into the restore.
  ASSERT_TRUE(loader->PopSamples(1, {at_snapshot[0].sample_id}).ok());

  auto restored = MakeLoader(0);
  ASSERT_TRUE(restored->Restore(snap).ok());
  std::vector<SampleMeta> after = restored->SummaryBuffer().samples;
  ASSERT_GE(after.size(), at_snapshot.size());
  for (size_t i = 0; i < at_snapshot.size(); ++i) {
    EXPECT_EQ(after[i].sample_id, at_snapshot[i].sample_id);
  }
  // Deterministic-refill dedup: consumed ids never reappear.
  for (const SampleMeta& m : after) {
    EXPECT_NE(m.sample_id, initial[5].sample_id);
    EXPECT_NE(m.sample_id, initial[1].sample_id);
    EXPECT_NE(m.sample_id, initial[2].sample_id);
  }
}

// ---- Multimodal pixel path ------------------------------------------------
// The corpus above is coyo700m-like (image-text sources), so the golden
// equivalence suite already exercises pixels; these tests pin the aliasing
// and allocator guarantees of the payload plane specifically.

// Finds the first sequence with a non-empty pixel segment in a batch.
const PixelView* FirstPixelSegment(const RankBatch& batch) {
  for (const Microbatch& mb : batch.microbatches) {
    for (const PackedSequence& seq : mb.sequences) {
      for (const PixelView& v : seq.pixel_segments) {
        if (!v.empty()) {
          return &v;
        }
      }
    }
  }
  return nullptr;
}

TEST_F(DataPlaneTest, PixelViewsAliasOneBufferAcrossTpCpAndRefetch) {
  ParallelismSpec spec{.dp = 1, .pp = 1, .cp = 2, .tp = 2};
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, 2);
  auto loader = MakeLoader(0);
  std::vector<SourceLoader*> loaders = {loader.get()};
  LoadingPlan plan = MakePlan(loaders, tree.NumBuckets(Axis::kDP), 2);

  DataConstructor dc({}, &tree, &memory_);
  std::vector<SampleSlice> slices = PopFor(plan, dc.OwnedBuckets(plan), loaders);
  // Retain the loaders' sample payloads so we can prove end-to-end aliasing:
  // the views served in rank batches must be windows of the very buffers the
  // loader's decode froze (no re-materialization anywhere between).
  std::unordered_map<uint64_t, std::shared_ptr<Sample>> by_id;
  for (const SampleSlice& slice : slices) {
    for (const std::shared_ptr<Sample>& s : slice.samples) {
      by_id.emplace(s->meta.sample_id, s);
    }
  }
  ASSERT_TRUE(dc.BuildStep(plan, std::move(slices)).ok());

  RankBatch cp0tp0 = dc.GetBatch(0, 0).value();  // cp=0 tp=0
  RankBatch cp0tp1 = dc.GetBatch(1, 0).value();  // cp=0 tp=1
  RankBatch cp1tp0 = dc.GetBatch(2, 0).value();  // cp=1 tp=0
  RankBatch again = dc.GetBatch(0, 0).value();

  const PixelView* px = FirstPixelSegment(cp0tp0);
  ASSERT_NE(px, nullptr) << "image corpus must yield pixel payloads";
  // Locate the matching segment on the other ranks (same microbatch order).
  const PixelView* px_tp1 = FirstPixelSegment(cp0tp1);
  const PixelView* px_cp1 = FirstPixelSegment(cp1tp0);
  const PixelView* px_again = FirstPixelSegment(again);
  ASSERT_NE(px_tp1, nullptr);
  ASSERT_NE(px_cp1, nullptr);
  ASSERT_NE(px_again, nullptr);
  // One frozen buffer serves every coordinate: TP replicas, both CP
  // coordinates (pixels ride whole; CP slices the token stream), refetches.
  EXPECT_TRUE(px->AliasesStorageOf(*px_tp1));
  EXPECT_TRUE(px->AliasesStorageOf(*px_cp1));
  EXPECT_TRUE(px->AliasesStorageOf(*px_again));

  // And that buffer IS the loader's decode output, not a constructor copy.
  bool aliases_loader_buffer = false;
  for (const auto& [id, sample] : by_id) {
    if (!sample->pixels.empty() && px->AliasesStorageOf(sample->pixels)) {
      aliases_loader_buffer = true;
      break;
    }
  }
  EXPECT_TRUE(aliases_loader_buffer)
      << "served pixel views must alias the loader-frozen buffers";
}

TEST_F(DataPlaneTest, ArenaOnOffByteIdenticalIncludingPixels) {
  ParallelismSpec spec{.dp = 1, .pp = 1, .cp = 2, .tp = 1};
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh(spec, 2);
  auto arena_loader = MakeLoader(0, /*arena_decode=*/true);
  auto legacy_loader = MakeLoader(0, /*arena_decode=*/false);
  std::vector<SourceLoader*> arena_loaders = {arena_loader.get()};
  std::vector<SourceLoader*> legacy_loaders = {legacy_loader.get()};
  LoadingPlan plan = MakePlan(arena_loaders, tree.NumBuckets(Axis::kDP), 2);

  DataConstructor on({}, &tree, &memory_);
  DataConstructor off({}, &tree, &memory_);
  ASSERT_TRUE(on.BuildStep(plan, PopFor(plan, on.OwnedBuckets(plan), arena_loaders)).ok());
  ASSERT_TRUE(off.BuildStep(plan, PopFor(plan, off.OwnedBuckets(plan), legacy_loaders)).ok());
  for (int32_t rank = 0; rank < spec.WorldSize(); ++rank) {
    RankBatch got = on.GetBatch(rank, 0).value();
    RankBatch want = off.GetBatch(rank, 0).value();
    ExpectBatchesIdentical(got, want);
  }
}

TEST_F(DataPlaneTest, ArenaDecodeSharesSlabStorageAcrossRows) {
  // Text rows are small enough that one MSDF row group holds many of them;
  // with one worker shard every row of a group must then alias ONE frozen
  // token slab (the whole point of the arena: O(1) buffers per group).
  CorpusSpec text = MakeTextCorpus(13, 1);
  SourceSpec spec = text.sources[0];
  spec.num_files = 1;
  spec.rows_per_file = 16;
  ASSERT_TRUE(
      WriteSourceFiles(store_, spec, /*seed=*/11, {.target_row_group_bytes = 256 * kKiB}).ok());
  SourceLoaderConfig config;
  config.loader_id = 77;
  config.spec = spec;
  config.files = {SourceFileName(spec, 0)};
  config.num_workers = 1;
  config.buffer_low_watermark = 32;
  auto loader = std::make_unique<SourceLoader>(config, &store_, &memory_);
  ASSERT_TRUE(loader->Open().ok());

  std::vector<uint64_t> ids;
  for (const SampleMeta& meta : loader->SummaryBuffer().samples) {
    ids.push_back(meta.sample_id);
  }
  ASSERT_GE(ids.size(), 8u);
  Result<SampleSlice> slice = loader->PopSamples(0, ids);
  ASSERT_TRUE(slice.ok());
  const std::vector<std::shared_ptr<Sample>>& samples = slice->samples;
  size_t sharing = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i]->tokens.AliasesStorageOf(samples[0]->tokens)) {
      ++sharing;
    }
  }
  // All 16 rows fit one group at this row size; everything shares the slab.
  EXPECT_GE(sharing, samples.size() / 2)
      << "arena decode must carve per-row views out of shared group slabs";
}

// Session-level: the multimodal stream (tokens + pixels) survives a durable
// checkpoint and a fresh-process resume byte-identically.
TEST(DataPlanePixelResumeTest, PixelStreamSurvivesCheckpointResume) {
  std::string dir = testing::ScratchDir("pixel_resume");
  Session::Options options;
  options.corpus = MakeCoyo700m();
  options.spec = {.dp = 1, .pp = 1, .cp = 2, .tp = 2};
  options.num_microbatches = 2;
  options.samples_per_step = 8;
  options.max_seq_len = 1024;
  options.rows_per_file_override = 64;
  options.loader_workers = 1;
  options.prefetch_depth = 2;

  {
    auto session = Session::Create(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int s = 0; s < 3; ++s) {
      StreamStep(**session);
    }
    ASSERT_TRUE((*session)->Checkpoint(dir).ok());
  }  // process "dies"

  // Uninterrupted reference run: skip the pre-checkpoint steps.
  auto reference = Session::Create(options);
  ASSERT_TRUE(reference.ok());
  for (int s = 0; s < 3; ++s) {
    StreamStep(**reference);
  }

  Session::Options resumed_options = options;
  resumed_options.resume_dir = dir;
  auto resumed = Session::Create(resumed_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  int64_t pixels_seen = 0;
  for (int s = 0; s < 2; ++s) {
    std::vector<RankBatch> got = StreamStep(**resumed);
    std::vector<RankBatch> want = StreamStep(**reference);
    ASSERT_EQ(got.size(), want.size());
    for (size_t rank = 0; rank < got.size(); ++rank) {
      ExpectBatchesIdentical(got[rank], want[rank]);
      for (const Microbatch& mb : got[rank].microbatches) {
        for (const PackedSequence& seq : mb.sequences) {
          pixels_seen += seq.PixelCount();
        }
      }
    }
  }
  EXPECT_GT(pixels_seen, 0) << "the image corpus must stream pixel payloads";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(StageShippedBytesTest, CountsTargetsPerStage) {
  ClientPlaceTree tree = ClientPlaceTree::FromDeviceMesh({.dp = 1, .pp = 1, .cp = 2, .tp = 2});
  BroadcastPlan plan = MakeSelectiveBroadcastPlan(tree, {Axis::kCP, Axis::kTP});
  // 1 fetching rank; stage CP re-broadcasts to 1, stage TP to 2.
  EXPECT_EQ(SynchronizedClients(plan), 1u);
  EXPECT_EQ(StageShippedBytes(plan, 100), (std::vector<int64_t>{100, 200}));
  EXPECT_EQ(TotalShippedBytes(plan, 100), 400);
}

}  // namespace
}  // namespace msd
