// The benchmark's own arithmetic, kept header-only so selftest.cc can check it
// in isolation: the tail-percentile rule, span self time, the rolling batch
// digest, and the FLOPs-to-sleep compute model.
#ifndef LAYERBENCH_BENCH_MATH_H_
#define LAYERBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/constructor/data_constructor.h"
#include "src/costmodel/flops.h"

namespace layerbench {

// One reported order statistic: the percentile actually used, its value, and
// the number of samples it was taken over.
struct Quantile {
  int percentile = 50;
  double value = 0.0;
  int64_t samples = 0;
};

// Nearest-rank index of percentile `p` in a sorted sample of size n.
inline int64_t NearestRankIndex(int p, int64_t n) {
  const int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

// Percentile `p` of `values` (nearest rank). The input need not be sorted.
inline Quantile Percentile(std::vector<double> values, int p) {
  Quantile q;
  q.percentile = p;
  q.samples = static_cast<int64_t>(values.size());
  if (values.empty()) {
    return q;
  }
  std::sort(values.begin(), values.end());
  q.value = values[static_cast<size_t>(NearestRankIndex(p, q.samples))];
  return q;
}

// The tail rule: the highest percentile <= `max_p` that still has at least
// ten samples strictly above it. A tail read off fewer samples is mostly one
// outlier, so a short run reports p95 or p90 instead of a noisy p99. Below
// 20 samples no percentile >= 50 qualifies and the median is reported.
inline Quantile TailPercentile(const std::vector<double>& values, int max_p = 99) {
  const int64_t n = static_cast<int64_t>(values.size());
  int p = max_p;
  for (; p > 50; --p) {
    if (n - 1 - NearestRankIndex(p, n) >= 10) {
      break;
    }
  }
  return Percentile(values, p);
}

// Samples per window of WindowedP99: the largest of 69 independent samples
// lies at or below their distribution's p99 with probability 0.99^69 ~ 0.5.
constexpr int64_t kP99WindowSamples = 69;

// The p99 as the median, over consecutive windows of kP99WindowSamples
// samples, of each window's largest sample; a trailing partial window is
// dropped. For independent samples this is the p99 itself, and a host stall
// that slows a few windows moves only their maxima, not the median, where a
// pooled p99 would move with the stalled steps. `samples` is the number of
// windows. With no full window, falls back to the tail rule.
inline Quantile WindowedP99(const std::vector<double>& values) {
  const int64_t windows = static_cast<int64_t>(values.size()) / kP99WindowSamples;
  if (windows == 0) {
    return TailPercentile(values);
  }
  std::vector<double> maxima;
  for (int64_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + w * kP99WindowSamples;
    maxima.push_back(*std::max_element(begin, begin + kP99WindowSamples));
  }
  Quantile q = Percentile(std::move(maxima), 50);
  q.percentile = 99;
  return q;
}

// A timed interval on one thread. `parent` is the id of the span that caused
// it (0 = root); children never outlive their parent's interval by design,
// but self time clips them anyway.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

// Total length of the union of `children` clipped to `parent` — what the
// children cover, counting overlapping children once.
inline int64_t CoveredNs(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin_ns < b.begin_ns; });
  int64_t covered = 0;
  int64_t cursor = parent.begin_ns;
  for (const Interval& c : children) {
    const int64_t begin = std::max(c.begin_ns, cursor);
    const int64_t end = std::min(c.end_ns, parent.end_ns);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

// Self time: the parent's duration minus the part its children cover.
inline int64_t SelfNs(const Interval& parent, const std::vector<Interval>& children) {
  return (parent.end_ns - parent.begin_ns) - CoveredNs(parent, children);
}

// Rolling 64-bit digest over delivered batches. Word-at-a-time mixing keeps
// hashing the pixel payloads cheap enough to run inside the simulated
// compute window; the byte tail is folded separately, so a digest depends on
// every byte and on every length.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    Word(size);
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, p + i, 8);
      Word(w);
    }
    uint64_t tail = 0;
    if (size > i) {
      std::memcpy(&tail, p + i, size - i);
    }
    Word(tail);
  }
  void Word(uint64_t w) {
    state_ ^= w + 0x9E3779B97F4A7C15ULL + (state_ << 6) + (state_ >> 2);
    state_ *= 0xFF51AFD7ED558CCDULL;
    state_ ^= state_ >> 32;
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

// Folds one rank's batch into `d`: step, rank, and per sequence the sample
// ids, segment lengths, tokens, positions and pixel bytes.
inline void FoldBatch(Digest& d, const msd::RankBatch& batch) {
  d.Word(static_cast<uint64_t>(batch.step));
  d.Word(static_cast<uint64_t>(batch.rank));
  d.Word(batch.metadata_only ? 1 : 0);
  for (const msd::Microbatch& mb : batch.microbatches) {
    d.Word(static_cast<uint64_t>(mb.microbatch_index));
    for (const msd::PackedSequence& seq : mb.sequences) {
      d.Bytes(seq.sample_ids.data(), seq.sample_ids.size() * sizeof(uint64_t));
      d.Bytes(seq.segment_lengths.data(), seq.segment_lengths.size() * sizeof(int32_t));
      d.Word(static_cast<uint64_t>(seq.padded_to));
      d.Bytes(seq.tokens.data(), seq.tokens.size() * sizeof(int32_t));
      d.Bytes(seq.position_ids.data(), seq.position_ids.size() * sizeof(int32_t));
      for (const msd::PixelView& pixels : seq.pixel_segments) {
        d.Bytes(pixels.data(), pixels.size() * sizeof(float));
      }
    }
  }
}

// Sample ids of a rank's batch, in delivery order.
inline std::vector<uint64_t> BatchSampleIds(const msd::RankBatch& batch) {
  std::vector<uint64_t> ids;
  for (const msd::Microbatch& mb : batch.microbatches) {
    for (const msd::PackedSequence& seq : mb.sequences) {
      ids.insert(ids.end(), seq.sample_ids.begin(), seq.sample_ids.end());
    }
  }
  return ids;
}

// What one step delivered, with every DP group counted once: ranks that share
// a group (CP slices, TP replicas, PP stages) carry the same sample ids, so
// groups are keyed by their sample-id list.
struct StepLoad {
  int64_t tokens = 0;          // non-padding tokens across groups
  int64_t padding = 0;         // padding tokens across groups
  double max_group_flops = 0;  // training FLOPs of the busiest group
  std::vector<uint64_t> sample_ids;  // sorted, across groups
};

inline StepLoad MeasureStep(const std::vector<msd::RankBatch>& batches,
                            const msd::ModelConfig& backbone) {
  StepLoad load;
  std::map<std::vector<uint64_t>, bool> seen;
  for (const msd::RankBatch& batch : batches) {
    std::vector<uint64_t> ids = BatchSampleIds(batch);
    if (ids.empty() || !seen.emplace(ids, true).second) {
      continue;
    }
    double flops = 0;
    for (const msd::Microbatch& mb : batch.microbatches) {
      for (const msd::PackedSequence& seq : mb.sequences) {
        load.tokens += seq.total_tokens;
        load.padding += seq.PaddingTokens();
        flops += msd::kTrainFlopsMultiplier * msd::ForwardFlops(backbone, seq.segment_lengths);
      }
    }
    load.max_group_flops = std::max(load.max_group_flops, flops);
    load.sample_ids.insert(load.sample_ids.end(), ids.begin(), ids.end());
  }
  std::sort(load.sample_ids.begin(), load.sample_ids.end());
  return load;
}

// Simulated accelerator time of a step: the busiest DP group's training
// FLOPs at the workload's device rate. Every group waits for the slowest at
// the gradient all-reduce, so the planner's balance reaches step time.
inline double ComputeSeconds(double max_group_flops, double device_flops_per_s) {
  return max_group_flops / device_flops_per_s;
}

}  // namespace layerbench

#endif  // LAYERBENCH_BENCH_MATH_H_
