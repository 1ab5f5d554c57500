// Checks the benchmark's own arithmetic: the tail-percentile rule, the
// windowed p99, self time
// under overlapping children, digest stability, and the compute model.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "bench_math.h"
#include "span_ring.h"
#include "src/costmodel/model_config.h"

namespace layerbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentileTest, ReportsHighestPercentileWithTenSamplesBeyond) {
  const Quantile big = TailPercentile(OneTo(1000));
  EXPECT_EQ(big.percentile, 99);
  EXPECT_EQ(big.value, 990);
  EXPECT_EQ(big.samples, 1000);

  const Quantile mid = TailPercentile(OneTo(200));
  EXPECT_EQ(mid.percentile, 95);
  EXPECT_EQ(mid.value, 190);  // exactly ten samples (191..200) lie beyond it
  EXPECT_EQ(mid.samples, 200);

  const Quantile small = TailPercentile(OneTo(100));
  EXPECT_EQ(small.percentile, 90);
  EXPECT_EQ(small.value, 90);
}

TEST(TailPercentileTest, EverySizeKeepsTenSamplesBeyondOrFallsBackToTheMedian) {
  for (int n = 1; n <= 1500; ++n) {
    const std::vector<double> values = OneTo(n);
    const Quantile q = TailPercentile(values);
    const int64_t beyond = n - static_cast<int64_t>(q.value);  // values are 1..n
    if (q.percentile > 50) {
      EXPECT_GE(beyond, 10) << "n=" << n;
      // One percentile higher would leave fewer than ten beyond (or exceed p99).
      if (q.percentile < 99) {
        EXPECT_LT(n - 1 - NearestRankIndex(q.percentile + 1, n), 10) << "n=" << n;
      }
    } else {
      EXPECT_EQ(q.value, Percentile(values, 50).value) << "n=" << n;
    }
    EXPECT_EQ(q.samples, n);
  }
}

TEST(TailPercentileTest, UnsortedInputAndMedian) {
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 50).value, 3);
  EXPECT_EQ(Percentile({}, 50).samples, 0);
}

TEST(WindowedP99Test, MedianOfWindowMaxima) {
  // Five windows of 69 samples, each 1..69 in some order, except that a
  // stall slows five samples of windows 2 and 4: their maxima are 500 and
  // 900, and the median of the maxima stays 69.
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    std::vector<double> window = OneTo(static_cast<int>(kP99WindowSamples));
    std::reverse(window.begin(), window.end());
    for (int i = 10; i < 15 && (w == 2 || w == 4); ++i) {
      window[static_cast<size_t>(i)] = w == 2 ? 500 : 900;
    }
    values.insert(values.end(), window.begin(), window.end());
  }
  values.push_back(10000);  // a trailing partial window is dropped
  const Quantile q = WindowedP99(values);
  EXPECT_EQ(q.percentile, 99);
  EXPECT_EQ(q.value, 69);
  EXPECT_EQ(q.samples, 5);
  // A pooled tail percentile takes the slowed samples in.
  EXPECT_GT(Percentile(values, 99).value, 69);

  // Fewer samples than one window: the tail rule.
  EXPECT_EQ(WindowedP99(OneTo(60)).value, TailPercentile(OneTo(60)).value);
}

TEST(WindowedP99Test, EstimatesThePercentileOfIndependentSamples) {
  // Independent uniform samples on [0, 1): the median window maximum is
  // 0.5^(1/69) = 0.98900, within sampling error.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> values(static_cast<size_t>(kP99WindowSamples) * 2001);
  for (double& v : values) v = uniform(rng);
  EXPECT_NEAR(WindowedP99(values).value, 0.99, 0.002);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const Interval parent{0, 100};
  // [10,40] and [30,60] overlap; [90,120] and [-5,5] stick out of the parent.
  const std::vector<Interval> children = {{30, 60}, {10, 40}, {90, 120}, {-5, 5}};
  EXPECT_EQ(CoveredNs(parent, children), 50 + 10 + 5);
  EXPECT_EQ(SelfNs(parent, children), 35);
  EXPECT_EQ(SelfNs(parent, {}), 100);
  EXPECT_EQ(SelfNs(parent, {{0, 100}, {20, 30}}), 0);
}

TEST(SelfTimeTest, PerLayerFromSpans) {
  std::vector<Span> spans;
  spans.push_back({1, 0, "drill.step", "drill", 0, 100, 0, 1});
  spans.push_back({2, 1, "actor.ask", "actor", 10, 60, 0, 1});
  spans.push_back({3, 2, "loader.pop", "loader", 15, 55, 0, 2});
  spans.push_back({4, 1, "actor.ask", "actor", 50, 90, 0, 1});  // overlaps span 2
  spans.push_back({5, 4, "planner.plan", "planner", 50, 90, 0, 3});
  const SelfTimes self = ComputeSelfTimes(spans);
  EXPECT_EQ(self.by_layer.at("drill"), 100 - 80);  // children cover [10,90]
  EXPECT_EQ(self.by_layer.at("actor"), 10 + 0);
  EXPECT_EQ(self.by_layer.at("loader"), 40);
  EXPECT_EQ(self.by_layer.at("planner"), 40);
  EXPECT_EQ(self.count_by_name.at("actor.ask"), 2);
}

msd::RankBatch MakeBatch(int32_t rank, std::vector<uint64_t> ids, std::vector<int32_t> segments,
                         int32_t padded_to) {
  msd::PackedSequence seq;
  seq.sample_ids = std::move(ids);
  seq.segment_lengths = segments;
  seq.total_tokens = std::accumulate(segments.begin(), segments.end(), 0);
  seq.padded_to = padded_to;
  std::vector<int32_t> tokens(static_cast<size_t>(padded_to));
  std::iota(tokens.begin(), tokens.end(), 7);
  seq.tokens = msd::TokenView(std::move(tokens));
  seq.pixel_segments.push_back(msd::PixelView(std::vector<float>{0.5f, 1.5f, 2.5f}));
  msd::Microbatch mb;
  mb.sequences.push_back(std::move(seq));
  msd::RankBatch batch;
  batch.rank = rank;
  batch.step = 3;
  batch.microbatches.push_back(std::move(mb));
  return batch;
}

uint64_t DigestOf(const msd::RankBatch& batch) {
  Digest d;
  FoldBatch(d, batch);
  return d.value();
}

TEST(DigestTest, StableAndSensitive) {
  const msd::RankBatch batch = MakeBatch(0, {11, 12}, {5, 3}, 10);
  // The value is pinned: a digest change would silently orphan recorded runs.
  EXPECT_EQ(DigestOf(batch), DigestOf(MakeBatch(0, {11, 12}, {5, 3}, 10)));
  EXPECT_EQ(DigestOf(batch), 0xb7b370a1dcf119daULL);

  msd::RankBatch pixel = MakeBatch(0, {11, 12}, {5, 3}, 10);
  pixel.microbatches[0].sequences[0].pixel_segments[0] =
      msd::PixelView(std::vector<float>{0.5f, 1.5f, 2.25f});
  EXPECT_NE(DigestOf(batch), DigestOf(pixel));
  EXPECT_NE(DigestOf(batch), DigestOf(MakeBatch(1, {11, 12}, {5, 3}, 10)));
  EXPECT_NE(DigestOf(batch), DigestOf(MakeBatch(0, {11, 13}, {5, 3}, 10)));

  // Lengths are folded, so moving a byte across a boundary changes the digest.
  Digest a;
  a.Bytes("ab", 2);
  a.Bytes("c", 1);
  Digest b;
  b.Bytes("a", 1);
  b.Bytes("bc", 2);
  EXPECT_NE(a.value(), b.value());
}

TEST(ComputeModelTest, BusiestGroupSetsStepTime) {
  const msd::ModelConfig backbone = msd::Llama12B();
  // Two DP groups, each served to two CP ranks with the same sample ids.
  std::vector<msd::RankBatch> batches = {
      MakeBatch(0, {1, 2}, {100, 50}, 160), MakeBatch(1, {1, 2}, {100, 50}, 160),
      MakeBatch(2, {3}, {400}, 400), MakeBatch(3, {3}, {400}, 400)};
  const StepLoad load = MeasureStep(batches, backbone);
  const double light = 3 * msd::ForwardFlops(backbone, {100, 50});
  const double heavy = 3 * msd::ForwardFlops(backbone, {400});
  EXPECT_DOUBLE_EQ(load.max_group_flops, std::max(light, heavy));
  EXPECT_EQ(load.tokens, 150 + 400);    // each group counted once
  EXPECT_EQ(load.padding, 10);          // 160 - 150, once
  EXPECT_EQ(load.sample_ids, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(ComputeSeconds(load.max_group_flops, heavy / 0.004), 0.004);
}

}  // namespace
}  // namespace layerbench
