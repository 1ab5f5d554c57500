#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.h"
#include "src/plan/balance.h"

namespace msd {
namespace {

std::vector<double> RandomCosts(size_t n, double skew_sigma, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> costs(n);
  for (double& c : costs) {
    c = rng.LogNormal(0.0, skew_sigma);
  }
  return costs;
}

TEST(BalanceMethodTest, NamesRoundTripThroughParser) {
  for (BalanceMethod m : {BalanceMethod::kGreedy, BalanceMethod::kKarmarkarKarp,
                          BalanceMethod::kInterleave, BalanceMethod::kZigZag,
                          BalanceMethod::kVShape}) {
    Result<BalanceMethod> parsed = ParseBalanceMethod(BalanceMethodName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), m);
  }
  EXPECT_FALSE(ParseBalanceMethod("nonsense").ok());
  EXPECT_EQ(ParseBalanceMethod("kk").value(), BalanceMethod::kKarmarkarKarp);
}

TEST(BalanceTest, AssignmentCoversAllItemsAllMethods) {
  std::vector<double> costs = RandomCosts(200, 1.0, 1);
  for (BalanceMethod m : {BalanceMethod::kGreedy, BalanceMethod::kKarmarkarKarp,
                          BalanceMethod::kInterleave, BalanceMethod::kZigZag,
                          BalanceMethod::kVShape}) {
    auto assignment = AssignToBins(costs, 8, m);
    ASSERT_EQ(assignment.size(), costs.size());
    for (int32_t bin : assignment) {
      EXPECT_GE(bin, 0);
      EXPECT_LT(bin, 8);
    }
    auto loads = BinLoads(costs, assignment, 8);
    double total = std::accumulate(loads.begin(), loads.end(), 0.0);
    double expected = std::accumulate(costs.begin(), costs.end(), 0.0);
    EXPECT_NEAR(total, expected, 1e-9);  // mass conservation
  }
}

TEST(BalanceTest, SingleBinTakesEverything) {
  std::vector<double> costs = {1.0, 2.0, 3.0};
  for (BalanceMethod m : {BalanceMethod::kGreedy, BalanceMethod::kKarmarkarKarp,
                          BalanceMethod::kInterleave}) {
    auto assignment = AssignToBins(costs, 1, m);
    for (int32_t bin : assignment) {
      EXPECT_EQ(bin, 0);
    }
  }
}

TEST(BalanceTest, EmptyInputYieldsEmptyAssignment) {
  EXPECT_TRUE(AssignToBins({}, 4, BalanceMethod::kGreedy).empty());
  EXPECT_TRUE(AssignToBins({}, 4, BalanceMethod::kKarmarkarKarp).empty());
}

TEST(BalanceTest, GreedyBeatsRoundRobinOnSkewedCosts) {
  std::vector<double> costs = RandomCosts(128, 1.5, 3);
  auto greedy = AssignToBins(costs, 8, BalanceMethod::kGreedy);
  // Unsorted round-robin strawman.
  std::vector<int32_t> round_robin(costs.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    round_robin[i] = static_cast<int32_t>(i % 8);
  }
  EXPECT_LT(Imbalance(BinLoads(costs, greedy, 8)),
            Imbalance(BinLoads(costs, round_robin, 8)));
}

TEST(BalanceTest, KarmarkarKarpCompetitiveWithGreedy) {
  // KK should be at least roughly as good as greedy on most inputs.
  int kk_wins_or_ties = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<double> costs = RandomCosts(64, 1.2, seed);
    double g = Imbalance(BinLoads(costs, AssignToBins(costs, 4, BalanceMethod::kGreedy), 4));
    double k = Imbalance(
        BinLoads(costs, AssignToBins(costs, 4, BalanceMethod::kKarmarkarKarp), 4));
    if (k <= g * 1.05) {
      ++kk_wins_or_ties;
    }
  }
  EXPECT_GE(kk_wins_or_ties, 15);
}

TEST(BalanceTest, KarmarkarKarpTwoWayClassic) {
  // The classic LDM walkthrough set {8,7,6,5,4}: repeated differencing leaves
  // a final difference of 2 (the optimum is 0 — KK is a heuristic, and 2 is
  // the canonical textbook result for this instance).
  std::vector<double> costs = {8, 7, 6, 5, 4};
  auto assignment = AssignToBins(costs, 2, BalanceMethod::kKarmarkarKarp);
  auto loads = BinLoads(costs, assignment, 2);
  EXPECT_DOUBLE_EQ(std::abs(loads[0] - loads[1]), 2.0);
}

TEST(BalanceTest, InterleaveSpreadsSortedCosts) {
  // With n*k identical-count bins, serpentine gives near-equal loads for a
  // linear cost ramp.
  std::vector<double> costs(32);
  std::iota(costs.begin(), costs.end(), 1.0);
  auto loads = BinLoads(costs, AssignToBins(costs, 4, BalanceMethod::kInterleave), 4);
  EXPECT_LT(Imbalance(loads), 1.05);
}

TEST(BalanceTest, VShapePairsHeavyAndLight) {
  std::vector<double> costs(16);
  std::iota(costs.begin(), costs.end(), 1.0);
  auto loads = BinLoads(costs, AssignToBins(costs, 4, BalanceMethod::kVShape), 4);
  EXPECT_LT(Imbalance(loads), 1.30);
}

TEST(BalanceTest, ZigZagIsStrictRoundRobinBySortedCost) {
  std::vector<double> costs = {10, 1, 8, 3};
  auto assignment = AssignToBins(costs, 2, BalanceMethod::kZigZag);
  // Sorted desc: 10, 8, 3, 1 -> bins 0, 1, 0, 1.
  EXPECT_EQ(assignment[0], 0);  // cost 10
  EXPECT_EQ(assignment[2], 1);  // cost 8
  EXPECT_EQ(assignment[3], 0);  // cost 3
  EXPECT_EQ(assignment[1], 1);  // cost 1
}

TEST(ImbalanceMetricsTest, PerfectBalanceIsOne) {
  EXPECT_DOUBLE_EQ(Imbalance({5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxMinRatio({5.0, 5.0}), 1.0);
}

TEST(ImbalanceMetricsTest, RatiosComputed) {
  EXPECT_DOUBLE_EQ(Imbalance({9.0, 3.0}), 1.5);       // 9 / 6
  EXPECT_DOUBLE_EQ(MaxMinRatio({9.0, 3.0}), 3.0);
  EXPECT_TRUE(std::isinf(MaxMinRatio({1.0, 0.0})));
  EXPECT_DOUBLE_EQ(MaxMinRatio({0.0, 0.0}), 1.0);
}

// Property sweep: greedy imbalance stays small when items are plentiful
// relative to bins, across skews and bin counts. Every field is 8 bytes, so
// the struct has no padding: gtest prints a parameter's raw bytes, and ctest
// names each case after them, so padding would make the names vary by build.
struct SweepParam {
  size_t items;
  int64_t bins;
  double sigma;
};

class GreedySweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GreedySweepTest, ImbalanceBounded) {
  SweepParam p = GetParam();
  std::vector<double> costs = RandomCosts(p.items, p.sigma, 99);
  const int32_t bins = static_cast<int32_t>(p.bins);
  auto loads = BinLoads(costs, AssignToBins(costs, bins, BalanceMethod::kGreedy), bins);
  // LPT guarantee: makespan <= (4/3 - 1/(3k)) * OPT, and OPT >= max(mean
  // load, heaviest single item) — the heavy-tail case is governed by the
  // largest item, not the mean.
  double mean = std::accumulate(costs.begin(), costs.end(), 0.0) / p.bins;
  double heaviest = *std::max_element(costs.begin(), costs.end());
  double opt_lower_bound = std::max(mean, heaviest);
  double max_load = *std::max_element(loads.begin(), loads.end());
  EXPECT_LE(max_load, (4.0 / 3.0) * opt_lower_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedySweepTest,
    ::testing::Values(SweepParam{64, 4, 0.5}, SweepParam{256, 8, 1.0},
                      SweepParam{256, 16, 1.5}, SweepParam{1024, 32, 1.0},
                      SweepParam{1024, 8, 3.0}));

// The heavy-tail case on the smallest shape. It shares items and bins with
// {64, 4, 0.5}, and a case's name prints items and bins first, so under the
// same prefix the two names would differ only in their trailing sigma bytes.
INSTANTIATE_TEST_SUITE_P(HeavyTail, GreedySweepTest,
                         ::testing::Values(SweepParam{64, 4, 2.0}));

}  // namespace
}  // namespace msd
