#include "cache/centrality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace dtncache::cache {
namespace {

/// Star topology: node 0 meets everyone, the rest only meet node 0.
trace::RateMatrix star(std::size_t n, double hubRate) {
  trace::RateMatrix m(n);
  for (NodeId j = 1; j < n; ++j) m.setRate(0, j, hubRate);
  return m;
}

// The first greedy pick's gain is the sum of its meeting probabilities,
// (N-1)·C_i(T): the first NCL is the top-capability node.

TEST(Centrality, HubHasHighestCapability) {
  // The hub's edges are weak (P ≈ 0.18 each) next to the near-certain pair
  // (10, 11), but nine of them reach further in sum.
  trace::RateMatrix m(12);
  for (NodeId j = 1; j < 10; ++j) m.setRate(0, j, 0.002);
  m.setRate(10, 11, 1.0);
  EXPECT_EQ(selectNcls(m, 100.0, 1), std::vector<NodeId>{0});
}

TEST(Centrality, CapabilityIsMeanMeetingProbability) {
  // Node 0 meets two nodes with P = 0.4 each; node 3 meets one with
  // P = 0.7. The sum, not the strongest edge, decides: 0.8 > 0.7 picks 0,
  // and with P = 0.3 each (0.6 < 0.7) node 3 wins.
  const double window = 100.0;
  const auto rateFor = [window](double p) { return -std::log(1.0 - p) / window; };
  for (const auto& [pairP, winner] : {std::pair{0.4, NodeId{0}}, std::pair{0.3, NodeId{3}}}) {
    trace::RateMatrix m(5);
    m.setRate(0, 1, rateFor(pairP));
    m.setRate(0, 2, rateFor(pairP));
    m.setRate(3, 4, rateFor(0.7));
    EXPECT_EQ(selectNcls(m, window, 1), std::vector<NodeId>{winner}) << "P=" << pairP;
  }
}

TEST(Centrality, TopCapabilityOrdersByMetric) {
  trace::RateMatrix m(4);
  m.setRate(0, 1, 0.001);
  m.setRate(2, 0, 0.05);
  m.setRate(2, 1, 0.05);
  m.setRate(2, 3, 0.05);
  const auto top = selectNcls(m, 100.0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
}

TEST(Centrality, SelectNclsReturnsRequestedCount) {
  const auto m = star(10, 0.01);
  EXPECT_EQ(selectNcls(m, 100.0, 3).size(), 3u);
  EXPECT_EQ(selectNcls(m, 100.0, 20).size(), 10u);  // clamped to n
}

TEST(Centrality, SelectNclsPicksHubFirst) {
  const auto m = star(10, 0.01);
  const auto ncls = selectNcls(m, 100.0, 4);
  EXPECT_EQ(ncls[0], 0u);
}

TEST(Centrality, GreedyAvoidsRedundantCoverage) {
  // Two communities {0,1,2} and {3,4,5}; 0 and 1 both cover community A
  // fully, 3 covers community B. Raw top-2 would pick 0 and 1 (both high
  // capability); greedy must pick one node from each community.
  trace::RateMatrix m(6);
  const double hi = 1.0;  // near-certain contact within the window
  m.setRate(0, 1, hi);
  m.setRate(0, 2, hi);
  m.setRate(1, 2, hi * 0.99);
  m.setRate(3, 4, hi * 0.5);
  m.setRate(3, 5, hi * 0.5);
  const auto ncls = selectNcls(m, 10.0, 2);
  ASSERT_EQ(ncls.size(), 2u);
  const bool coversA = ncls[0] <= 2 || ncls[1] <= 2;
  const bool coversB = ncls[0] >= 3 || ncls[1] >= 3;
  EXPECT_TRUE(coversA);
  EXPECT_TRUE(coversB);
}

TEST(Centrality, DeterministicUnderTies) {
  trace::RateMatrix m(5);  // all-zero rates: every node ties
  const auto a = selectNcls(m, 100.0, 3);
  const auto b = selectNcls(m, 100.0, 3);
  EXPECT_EQ(a, b);
}

// ---- Lazy greedy == eager greedy -------------------------------------------

/// The eager greedy pass selectNcls ran before it became lazy: every pick
/// re-scores every unchosen candidate over every other node and keeps the
/// first strictly greater gain. Skipped pairs read P == 0.0, which adds
/// exactly +0.0, so this one loop is the reference for both backends.
std::vector<NodeId> eagerNcls(const trace::RateMatrix& rates, sim::SimTime window,
                              std::size_t k) {
  const std::size_t n = rates.nodeCount();
  k = std::min(k, n);
  std::vector<NodeId> chosen;
  std::vector<double> notCovered(n, 1.0);
  std::vector<bool> isChosen(n, false);
  for (std::size_t pick = 0; pick < k; ++pick) {
    NodeId best = kNoNode;
    double bestGain = -1.0;
    for (NodeId cand = 0; cand < n; ++cand) {
      if (isChosen[cand]) continue;
      double gain = 0.0;
      for (NodeId j = 0; j < n; ++j) {
        if (j == cand || isChosen[j]) continue;
        gain += notCovered[j] * rates.meetingProbability(cand, j, window);
      }
      if (gain > bestGain) {
        bestGain = gain;
        best = cand;
      }
    }
    isChosen[best] = true;
    chosen.push_back(best);
    for (NodeId j = 0; j < n; ++j)
      if (j != best) notCovered[j] *= 1.0 - rates.meetingProbability(best, j, window);
  }
  return chosen;
}

/// Random symmetric rates: each pair present with probability `density`.
trace::RateMatrix randomRates(std::size_t n, double density, trace::PairBackend backend,
                              double defaultRate, sim::Rng& rng) {
  trace::RateMatrix m(n, backend, defaultRate);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.bernoulli(density)) m.setRate(i, j, rng.uniform(1e-4, 0.05));
  return m;
}

/// Lazy and eager greedy agree for every k in `ks`; by default none, one,
/// a typical NCL count and all nodes.
void expectLazyMatchesEager(const trace::RateMatrix& m, sim::SimTime window,
                            const std::string& what, std::vector<std::size_t> ks = {}) {
  if (ks.empty()) ks = {0, 1, 9, m.nodeCount()};
  for (const std::size_t k : ks) {
    EXPECT_EQ(selectNcls(m, window, k), eagerNcls(m, window, k)) << what << " k=" << k;
  }
}

TEST(LazyGreedy, MatchesEagerOnRandomDenseAndSparseMatrices) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(10, 40));
    const double window = rng.uniform(30.0, 3000.0);
    for (const double density : {0.9, 0.08}) {
      const std::string tag =
          "trial " + std::to_string(trial) + " density " + std::to_string(density);
      expectLazyMatchesEager(randomRates(n, density, trace::PairBackend::kDense, 0.0, rng),
                             window, tag + " dense");
      expectLazyMatchesEager(randomRates(n, density, trace::PairBackend::kSparse, 0.0, rng),
                             window, tag + " sparse");
      expectLazyMatchesEager(
          randomRates(n, density, trace::PairBackend::kSparse, 2e-4, rng), window,
          tag + " sparse, nonzero default");
    }
  }
}

TEST(LazyGreedy, MatchesEagerOnLargeSparseMatrices) {
  // Few shared neighbors: a pick re-scores a handful of candidates, well
  // under the budget that hands a call to the eager scan.
  sim::Rng rng(99);
  for (int trial = 0; trial < 4; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(200, 300));
    expectLazyMatchesEager(randomRates(n, 4.0 / static_cast<double>(n),
                                       trace::PairBackend::kSparse, 0.0, rng),
                           600.0, "large sparse trial " + std::to_string(trial), {9, n / 4});
  }
}

TEST(LazyGreedy, AllEqualRatesTieBreakLikeEager) {
  for (const auto backend : {trace::PairBackend::kDense, trace::PairBackend::kSparse}) {
    trace::RateMatrix m(12, backend);
    for (NodeId i = 0; i < 12; ++i)
      for (NodeId j = i + 1; j < 12; ++j) m.setRate(i, j, 0.01);
    expectLazyMatchesEager(m, 100.0, "all-equal rates");
    EXPECT_EQ(selectNcls(m, 100.0, 1), std::vector<NodeId>{0});  // lowest id wins a tie
  }
}

TEST(LazyGreedy, ZeroGainNodesArePickedInIdOrder) {
  // Nodes 1, 4 and 7 meet only hub 5; nodes 0, 2, 3, 6, 8, 9 meet nobody.
  // After the hub, every remaining gain is exactly 0, so the rest must come
  // out in ascending id order.
  for (const auto backend : {trace::PairBackend::kDense, trace::PairBackend::kSparse}) {
    trace::RateMatrix m(10, backend);
    for (const NodeId leaf : {1u, 4u, 7u}) m.setRate(5, leaf, 0.02);
    expectLazyMatchesEager(m, 100.0, "isolated nodes");
    EXPECT_EQ(selectNcls(m, 100.0, 10),
              (std::vector<NodeId>{5, 0, 1, 2, 3, 4, 6, 7, 8, 9}));
  }
  trace::RateMatrix empty(6, trace::PairBackend::kSparse);
  EXPECT_EQ(selectNcls(empty, 100.0, 6), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace dtncache::cache
