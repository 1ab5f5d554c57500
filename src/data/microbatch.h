// Microbatch transformations (Fig. 1 middle stage): packing fragmented
// subsequences into complete sequences with segment masks, padding, and RoPE
// position assignment.
#ifndef SRC_DATA_MICROBATCH_H_
#define SRC_DATA_MICROBATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/data/payload_buffer.h"
#include "src/data/sample.h"

namespace msd {

// Sentinel token ids used when materializing packed payloads.
inline constexpr int32_t kImagePatchToken = -1;
inline constexpr int32_t kPadToken = -2;

// One packed training sequence assembled from one or more sample subsequences.
// Token payloads are zero-copy views (see payload_buffer.h): the constructor
// materializes each padded sequence exactly once, and every rank batch that
// shares the sequence (TP replicas, CP slices, resident steps) aliases that
// frozen storage instead of copying it. Pixel payloads never materialize at
// all on the zero-copy plane: each visual segment's view aliases the frozen
// buffer the loader's decode produced (usually a whole row-group arena slab).
struct PackedSequence {
  std::vector<uint64_t> sample_ids;
  std::vector<int32_t> segment_lengths;  // tokens contributed by each sample
  TokenView tokens;                      // concatenated token ids (real mode)
  TokenView position_ids;                // RoPE positions, restarting per segment
  // Patch-embedding inputs per segment (parallel to sample_ids; empty views
  // for pure-text segments). Slot i backs the kImagePatchToken sentinels of
  // segment i, truncated with it. Pixels ride whole with the sequence at
  // every CP coordinate — the token stream is what CP slices; patch
  // embeddings are injected model-side at sentinel positions.
  std::vector<PixelView> pixel_segments;
  int32_t total_tokens = 0;              // sum of segment_lengths
  int32_t padded_to = 0;                 // 0 until padding runs

  int32_t PaddingTokens() const { return padded_to > 0 ? padded_to - total_tokens : 0; }
  // Patch-embedding slots carried by this sequence's pixel views.
  int64_t PixelCount() const;
};

struct Microbatch {
  int32_t microbatch_index = 0;
  std::vector<PackedSequence> sequences;

  int64_t TotalTokens() const;
  int64_t TotalPaddingTokens() const;
};

// First-fit-decreasing packing of sample token counts into sequences of at
// most max_seq_len tokens. Samples longer than max_seq_len are truncated to it
// (the paper notes max sequence length only bounds backbone tokens).
// Metadata-only: fills sample_ids/segment_lengths, not token payloads.
std::vector<PackedSequence> PackSequences(const std::vector<SampleMeta>& samples,
                                          int32_t max_seq_len);

// Fills token payloads of a packed sequence from materialized samples
// (real mode). Samples must appear in the same order as sample_ids. The
// payload (and its RoPE positions) is built in one pass and frozen once;
// when `pad_to` > 0 the padding is emitted in the same pass, so the hot
// assembly path never re-materializes a sequence to pad it.
Status FillPackedTokens(PackedSequence& seq, const std::vector<const Sample*>& samples,
                        int32_t pad_to = 0);
// Convenience overload for callers holding sample values (tests, tools).
Status FillPackedTokens(PackedSequence& seq, const std::vector<Sample>& samples);

// Pads every sequence in the microbatch to the batch max (or `pad_to` if
// nonzero) and assigns RoPE position ids (restarting at each segment start).
// Sequences whose payload is already materialized are re-frozen at the padded
// width (one copy); prefer FillPackedTokens(pad_to) on hot paths.
void PadMicrobatch(Microbatch& mb, int32_t pad_to = 0);

// Positions for one packed sequence: 0..len-1 within each segment.
std::vector<int32_t> RopePositions(const PackedSequence& seq);

}  // namespace msd

#endif  // SRC_DATA_MICROBATCH_H_
