#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>

#include "src/common/hash.h"
#include "src/common/mpmc_queue.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace msd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such file");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such file");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 5.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, LogNormalPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.4);
  EXPECT_NEAR(static_cast<double>(counts[3]) / counts[0], 6.0, 0.8);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Zipf(10, 1.2)];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(CategoricalTableTest, MatchesDirectSampling) {
  std::vector<double> weights = {2.0, 1.0, 1.0};
  CategoricalTable table(weights);
  Rng rng(23);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 12000; ++i) {
    ++counts[table.Sample(rng)];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / 12000.0, 0.5, 0.03);
}

TEST(CategoricalTableTest, ResetChangesDistribution) {
  CategoricalTable table({1.0, 0.0});
  Rng rng(29);
  table.Reset({0.0, 1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Sample(rng), 1u);
  }
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stat.Add(v);
  }
  EXPECT_EQ(stat.count(), 4);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);
  EXPECT_NEAR(stat.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.sum(), 10.0);
}

TEST(RunningStatTest, EmptyIsSafe) {
  RunningStat stat;
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(Pow2HistogramTest, BucketBoundaries) {
  Pow2Histogram h(16, 128);  // buckets: 16, 32, 64, 128
  ASSERT_EQ(h.bounds().size(), 4u);
  h.Add(16);   // first bucket
  h.Add(17);   // second
  h.Add(128);  // last
  h.Add(999);  // clamped to last
  auto cf = h.CountFractions();
  EXPECT_DOUBLE_EQ(cf[0], 0.25);
  EXPECT_DOUBLE_EQ(cf[1], 0.25);
  EXPECT_DOUBLE_EQ(cf[3], 0.5);
}

TEST(Pow2HistogramTest, WeightFractionsUseWeights) {
  Pow2Histogram h(16, 64);
  h.Add(10, 1.0);
  h.Add(60, 9.0);
  auto wf = h.WeightFractions();
  EXPECT_DOUBLE_EQ(wf[0], 0.1);
  EXPECT_DOUBLE_EQ(wf[2], 0.9);
}

TEST(EmpiricalCdfTest, QuantilesInterpolate) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 0.01);
}

TEST(EmpiricalCdfTest, CurveIsMonotonic) {
  EmpiricalCdf cdf;
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    cdf.Add(rng.NextDouble());
  }
  auto curve = cdf.Curve(11);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second);
  }
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kGiB), "3.00 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(UnitsTest, FormatSimTime) {
  EXPECT_EQ(FormatSimTime(500), "500 us");
  EXPECT_EQ(FormatSimTime(2 * kMillisecond), "2.0 ms");
  EXPECT_EQ(FormatSimTime(3 * kSecond), "3.00 s");
}

TEST(UnitsTest, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(1.5)), 1.5);
}

TEST(MpmcQueueTest, FifoOrder) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(MpmcQueueTest, TryPushRespectsCapacity) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpmcQueueTest, CloseDrainsThenFails) {
  MpmcQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_EQ(q.Pop().value(), 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, ConcurrentProducersConsumers) {
  MpmcQueue<int> q(64);
  constexpr int kPerProducer = 1000;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) {
        q.Push(i);
      }
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&q, &sum] {
      while (auto v = q.Pop()) {
        sum += *v;
      }
    });
  }
  for (int p = 0; p < 4; ++p) {
    threads[static_cast<size_t>(p)].join();
  }
  q.Close();
  for (size_t c = 4; c < threads.size(); ++c) {
    threads[c].join();
  }
  EXPECT_EQ(sum.load(), 4LL * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.wait();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {}).wait();
  pool.Shutdown();
  pool.Shutdown();
}

TEST(FormatRowTest, JoinsWithPipes) {
  EXPECT_EQ(FormatRow({1.0, 2.5}, 1), "1.0 | 2.5");
}

// Deterministic filler for the hash tests: no run of equal bytes.
std::string PatternBytes(size_t len) {
  std::string bytes(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<char>(i * 37 + 11);
  }
  return bytes;
}

TEST(Xxh64Test, MatchesPublishedValues) {
  EXPECT_EQ(Xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(Xxh64("xxhash"), 0x32DD38952C4BC720ULL);
  EXPECT_EQ(Xxh64("xxhash", 20141025), 0xB559B98D844E0635ULL);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(Xxh64("Nobody inspects the spammish repetition"), 0xFBCEA83C8A378BF1ULL);
}

TEST(Xxh64Test, UnalignedStartHashesEqual) {
  // 77 bytes: two stripes plus every tail (8-, 4- and 1-byte).
  const std::string payload = PatternBytes(77);
  const uint64_t want = Xxh64(payload);
  for (size_t offset = 0; offset < 8; ++offset) {
    std::string buffer(offset, 'x');
    buffer += payload;
    EXPECT_EQ(Xxh64(std::string_view(buffer).substr(offset)), want) << "offset " << offset;
  }
}

TEST(Xxh64Test, EverySingleBitFlipChangesTheHash) {
  for (size_t len = 0; len <= 96; ++len) {
    std::string bytes = PatternBytes(len);
    const uint64_t clean = Xxh64(bytes);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      const char mask = static_cast<char>(1u << (bit % 8));
      bytes[bit / 8] ^= mask;
      EXPECT_NE(Xxh64(bytes), clean) << "len " << len << " bit " << bit;
      bytes[bit / 8] ^= mask;
    }
  }
}

}  // namespace
}  // namespace msd
