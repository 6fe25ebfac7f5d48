#include "cache/centrality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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

TEST(Centrality, HubHasHighestCapability) {
  const auto m = star(10, 0.01);
  const auto cap = contactCapability(m, 100.0);
  for (NodeId j = 1; j < 10; ++j) EXPECT_GT(cap[0], cap[j]);
}

TEST(Centrality, CapabilityIsMeanMeetingProbability) {
  trace::RateMatrix m(3);
  m.setRate(0, 1, 0.01);
  m.setRate(0, 2, 0.02);
  const auto cap = contactCapability(m, 100.0);
  const double expected =
      (trace::contactProbability(0.01, 100.0) + trace::contactProbability(0.02, 100.0)) / 2.0;
  EXPECT_NEAR(cap[0], expected, 1e-12);
}

TEST(Centrality, TopCapabilityOrdersByMetric) {
  trace::RateMatrix m(4);
  m.setRate(0, 1, 0.001);
  m.setRate(2, 0, 0.05);
  m.setRate(2, 1, 0.05);
  m.setRate(2, 3, 0.05);
  const auto top = selectTopCapability(m, 100.0, 2);
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

// ---- Incremental CentralityState -------------------------------------------

trace::RateMatrix randomMatrix(std::size_t n, sim::Rng& rng) {
  trace::RateMatrix m(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.6)) m.setRate(i, j, rng.uniform(0.0, 0.05));
  return m;
}

TEST(CentralityState, IncrementalMatchesBatchUnderRandomRowUpdates) {
  // Mutate random rows between refreshes; the incrementally maintained
  // capability vector and NCL set must stay bit-identical to the batch
  // functions at every step — the equivalence the maintenance tick's
  // NCL change-detection rests on.
  constexpr std::size_t kNodes = 16;
  constexpr double kWindow = 600.0;
  constexpr std::size_t kK = 4;
  sim::Rng rng(42);
  auto m = randomMatrix(kNodes, rng);
  CentralityState state;
  std::vector<NodeId> changed;
  bool moved = selectNcls(state, m, kWindow, kK, changed);
  EXPECT_TRUE(moved);  // first call on an unprimed state always reports true
  for (int round = 0; round < 40; ++round) {
    changed.clear();
    const int rows = static_cast<int>(rng.uniformInt(0, 3));
    for (int r = 0; r < rows; ++r) {
      const NodeId i = static_cast<NodeId>(rng.uniformInt(0, kNodes - 1));
      NodeId j = static_cast<NodeId>(rng.uniformInt(0, kNodes - 2));
      if (j >= i) ++j;
      m.setRate(i, j, rng.uniform(0.0, 0.05));
      changed.push_back(i);
      changed.push_back(j);
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

    const auto previous = state.ncls();
    moved = selectNcls(state, m, kWindow, kK, changed);
    const auto batchCap = contactCapability(m, kWindow);
    const auto& incCap = state.capability();
    ASSERT_EQ(incCap.size(), batchCap.size());
    for (std::size_t i = 0; i < batchCap.size(); ++i)
      ASSERT_EQ(incCap[i], batchCap[i]) << "node " << i << " round " << round;
    EXPECT_EQ(state.ncls(), selectNcls(m, kWindow, kK)) << "round " << round;
    EXPECT_EQ(moved, state.ncls() != previous) << "round " << round;
  }
}

TEST(CentralityState, NoChangeShortCircuitReportsStableSet) {
  const auto m = star(10, 0.01);
  CentralityState state;
  std::vector<NodeId> none;
  EXPECT_TRUE(selectNcls(state, m, 100.0, 3, none));
  const auto first = state.ncls();
  // Primed + empty change list: skipped outright, nothing moved.
  EXPECT_FALSE(selectNcls(state, m, 100.0, 3, none));
  EXPECT_EQ(state.ncls(), first);
}

TEST(CentralityState, ParameterChangeForcesFullRederivation) {
  sim::Rng rng(5);
  const auto m = randomMatrix(12, rng);
  CentralityState state;
  std::vector<NodeId> none;
  selectNcls(state, m, 100.0, 3, none);
  // A different window invalidates every cached probability even with an
  // empty change list.
  selectNcls(state, m, 900.0, 3, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 3));
  // Same for a different k...
  selectNcls(state, m, 900.0, 5, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 5));
  // ...and an explicit invalidate() must rebuild to the same answer.
  state.invalidate();
  EXPECT_FALSE(state.primed());
  selectNcls(state, m, 900.0, 5, none);
  EXPECT_EQ(state.ncls(), selectNcls(m, 900.0, 5));
}

TEST(CentralityState, IncrementalCapabilityOverloadMatchesBatch) {
  sim::Rng rng(11);
  auto m = randomMatrix(10, rng);
  CentralityState state;
  std::vector<NodeId> changed;
  const auto& cap = contactCapability(state, m, 200.0, changed);
  EXPECT_EQ(cap, contactCapability(m, 200.0));
  m.setRate(2, 7, 0.04);
  changed = {2, 7};
  const auto& cap2 = contactCapability(state, m, 200.0, changed);
  EXPECT_EQ(cap2, contactCapability(m, 200.0));
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

/// Lazy batch, lazy incremental (fresh state) and eager agree for every k
/// in `ks`; by default none, one, a typical NCL count and all nodes.
void expectLazyMatchesEager(const trace::RateMatrix& m, sim::SimTime window,
                            const std::string& what, std::vector<std::size_t> ks = {}) {
  if (ks.empty()) ks = {0, 1, 9, m.nodeCount()};
  for (const std::size_t k : ks) {
    const auto expected = eagerNcls(m, window, k);
    EXPECT_EQ(selectNcls(m, window, k), expected) << what << " k=" << k;
    CentralityState state;
    selectNcls(state, m, window, k, {});
    EXPECT_EQ(state.ncls(), expected) << what << " k=" << k << " (incremental)";
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

TEST(LazyGreedy, IncrementalMatchesBatchUnderSparseRowUpdates) {
  // The dense variant is IncrementalMatchesBatchUnderRandomRowUpdates; this
  // one drives the sparse row cache (zero and nonzero default) through the
  // same kind of random edits, with k = 9 so several picks re-evaluate.
  for (const double defaultRate : {0.0, 1e-4}) {
    sim::Rng rng(77);
    auto m = randomRates(30, 0.15, trace::PairBackend::kSparse, defaultRate, rng);
    CentralityState state;
    selectNcls(state, m, 600.0, 9, {});
    std::vector<NodeId> changed;
    for (int round = 0; round < 30; ++round) {
      changed.clear();
      for (int r = 0; r < 3; ++r) {
        const auto i = static_cast<NodeId>(rng.uniformInt(0, 29));
        auto j = static_cast<NodeId>(rng.uniformInt(0, 28));
        if (j >= i) ++j;
        m.setRate(i, j, rng.uniform(0.0, 0.05));
        changed.push_back(i);
        changed.push_back(j);
      }
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
      selectNcls(state, m, 600.0, 9, changed);
      EXPECT_EQ(state.ncls(), selectNcls(m, 600.0, 9)) << "round " << round;
      EXPECT_EQ(state.ncls(), eagerNcls(m, 600.0, 9)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace dtncache::cache
