// Shared test helpers for stream identity:
//  - StreamStep pulls one step for every rank of a Session through its
//    DataClients, in rank order.
//  - ExpectBatchesIdentical is the full byte-level RankBatch comparison —
//    metadata, packing shape, token/position payloads, and per-segment pixel
//    payloads. Every suite that asserts stream identity (dataplane, pipeline,
//    io, checkpoint, kill -9) uses THIS helper, so a new payload field added
//    to PackedSequence only needs one comparison site updated.
#ifndef TESTS_BATCH_IDENTITY_H_
#define TESTS_BATCH_IDENTITY_H_

#include <gtest/gtest.h>

#include <vector>

#include "src/api/session.h"
#include "src/constructor/data_constructor.h"

namespace msd {
namespace testing {

// Pulls the next step's batch for every rank, rank 0 first. At prefetch depth
// 0, rank 0's pull produces the step inline, so scripted events between calls
// stay aligned with step boundaries.
inline std::vector<RankBatch> StreamStep(Session& session) {
  const int32_t world = session.tree().spec().WorldSize();
  std::vector<RankBatch> batches(static_cast<size_t>(world));
  for (int32_t rank = 0; rank < world; ++rank) {
    Result<RankBatch> batch = session.client(rank).value()->NextBatch();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch.ok()) {
      batches[static_cast<size_t>(rank)] = std::move(batch.value());
    }
  }
  return batches;
}

inline void ExpectBatchesIdentical(const RankBatch& got, const RankBatch& want) {
  EXPECT_EQ(got.rank, want.rank);
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.metadata_only, want.metadata_only);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  ASSERT_EQ(got.microbatches.size(), want.microbatches.size());
  for (size_t m = 0; m < got.microbatches.size(); ++m) {
    const Microbatch& gm = got.microbatches[m];
    const Microbatch& wm = want.microbatches[m];
    EXPECT_EQ(gm.microbatch_index, wm.microbatch_index);
    ASSERT_EQ(gm.sequences.size(), wm.sequences.size());
    for (size_t s = 0; s < gm.sequences.size(); ++s) {
      const PackedSequence& gs = gm.sequences[s];
      const PackedSequence& ws = wm.sequences[s];
      EXPECT_EQ(gs.sample_ids, ws.sample_ids);
      EXPECT_EQ(gs.segment_lengths, ws.segment_lengths);
      EXPECT_EQ(gs.total_tokens, ws.total_tokens);
      EXPECT_EQ(gs.padded_to, ws.padded_to);
      EXPECT_EQ(gs.tokens.ToVector(), ws.tokens.ToVector());
      EXPECT_EQ(gs.position_ids.ToVector(), ws.position_ids.ToVector());
      // Pixel payloads (multimodal zero-copy plane) must match byte-for-byte.
      ASSERT_EQ(gs.pixel_segments.size(), ws.pixel_segments.size());
      for (size_t p = 0; p < gs.pixel_segments.size(); ++p) {
        EXPECT_EQ(gs.pixel_segments[p].ToVector(), ws.pixel_segments[p].ToVector());
      }
    }
  }
}

}  // namespace testing
}  // namespace msd

#endif  // TESTS_BATCH_IDENTITY_H_
