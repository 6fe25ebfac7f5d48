#include "trace/rate_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "trace/estimator.hpp"

namespace dtncache::trace {
namespace {

TEST(RateMatrix, SymmetricStorage) {
  RateMatrix m(4);
  m.setRate(1, 3, 0.5);
  EXPECT_DOUBLE_EQ(m.rate(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.rate(3, 1), 0.5);
}

TEST(RateMatrix, SelfRateIsZero) {
  RateMatrix m(4);
  EXPECT_DOUBLE_EQ(m.rate(2, 2), 0.0);
}

TEST(RateMatrix, DefaultsToZero) {
  RateMatrix m(5);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), 0.0);
}

TEST(RateMatrix, AllPairsIndependentlyAddressable) {
  const std::size_t n = 7;
  RateMatrix m(n);
  double v = 1.0;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) m.setRate(i, j, v++);
  v = 1.0;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) EXPECT_DOUBLE_EQ(m.rate(i, j), v++);
}

TEST(RateMatrix, NodeRateSum) {
  RateMatrix m(3);
  m.setRate(0, 1, 0.2);
  m.setRate(0, 2, 0.3);
  EXPECT_DOUBLE_EQ(m.nodeRateSum(0), 0.5);
  EXPECT_DOUBLE_EQ(m.nodeRateSum(1), 0.2);
}

TEST(RateMatrix, MeetingProbability) {
  RateMatrix m(2);
  m.setRate(0, 1, 0.1);
  EXPECT_NEAR(m.meetingProbability(0, 1, 10.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(ContactProbabilityFn, Basics) {
  EXPECT_DOUBLE_EQ(contactProbability(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(contactProbability(1.0, 0.0), 0.0);
  EXPECT_NEAR(contactProbability(2.0, 1.0), 1.0 - std::exp(-2.0), 1e-12);
}

TEST(ExpectedContactDelayFn, InfiniteForZeroRate) {
  EXPECT_TRUE(std::isinf(expectedContactDelay(0.0)));
  EXPECT_DOUBLE_EQ(expectedContactDelay(0.5), 2.0);
}

TEST(RateMatrix, FitFromTrace) {
  std::vector<Contact> cs;
  for (int i = 0; i < 10; ++i) cs.push_back({static_cast<double>(i * 10), 1.0, 0, 1});
  cs.push_back({50.0, 1.0, 1, 2});
  cs.push_back({99.0, 1.0, 0, 2});
  ContactTrace trace(3, std::move(cs));
  const auto m = RateMatrix::fitFromTrace(trace);
  const double d = trace.duration();
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 10.0 / d);
  EXPECT_DOUBLE_EQ(m.rate(1, 2), 1.0 / d);
  EXPECT_DOUBLE_EQ(m.rate(0, 2), 1.0 / d);
}

TEST(RateMatrix, FitFromEmptyTraceIsZero) {
  const auto m = RateMatrix::fitFromTrace(ContactTrace(3, {}));
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 0.0);
}

/// Distinct random pairs over n nodes, in draw order, with random
/// orientation and rates.
std::vector<PairRate> randomPairs(std::size_t n, std::size_t count, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<PairRate> pairs;
  while (pairs.size() < count) {
    const auto a = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (a == b || !seen.emplace(std::min(a, b), std::max(a, b)).second) continue;
    pairs.push_back(PairRate{a, b, rng.uniform(0.0, 2.0)});
  }
  return pairs;
}

void expectSameMatrix(const RateMatrix& bulk, const RateMatrix& perPair) {
  ASSERT_EQ(bulk.nodeCount(), perPair.nodeCount());
  ASSERT_EQ(bulk.isSparse(), perPair.isSparse());
  EXPECT_EQ(bulk.observedPairCount(), perPair.observedPairCount());
  const std::size_t n = bulk.nodeCount();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) ASSERT_EQ(bulk.rate(i, j), perPair.rate(i, j));
    EXPECT_EQ(bulk.nodeRateSum(i), perPair.nodeRateSum(i));
    std::vector<std::pair<NodeId, double>> a, b;
    bulk.forEachNeighbor(i, [&a](NodeId j, double r) { a.emplace_back(j, r); });
    perPair.forEachNeighbor(i, [&b](NodeId j, double r) { b.emplace_back(j, r); });
    ASSERT_EQ(a, b) << "row " << i;
  }
}

TEST(RateMatrix, BulkBuildEqualsPerPairBuild) {
  for (const PairBackend backend : {PairBackend::kSparse, PairBackend::kDense}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::size_t n = 5 + 7 * seed;
      const auto pairs = randomPairs(n, seed * n / 2, seed);
      RateMatrix perPair(n, backend);
      for (const PairRate& p : pairs) perPair.setRate(p.a, p.b, p.rate);
      expectSameMatrix(RateMatrix::fromPairs(n, pairs, backend), perPair);
    }
  }
  // No pairs: every rate reads as zero.
  const RateMatrix empty = RateMatrix::fromPairs(4, {}, PairBackend::kSparse);
  EXPECT_EQ(empty.observedPairCount(), 0u);
  EXPECT_EQ(empty.rate(0, 3), 0.0);
}

TEST(RateMatrix, BulkBuildRejectsBadPairs) {
  for (const PairBackend backend : {PairBackend::kSparse, PairBackend::kDense}) {
    const std::vector<PairRate> self{{0, 1, 1.0}, {2, 2, 1.0}};
    const std::vector<PairRate> duplicate{{0, 1, 1.0}, {3, 2, 1.0}, {1, 0, 2.0}};
    const std::vector<PairRate> outOfRange{{0, 4, 1.0}};
    const std::vector<PairRate> negative{{0, 1, -1.0}};
    EXPECT_THROW(RateMatrix::fromPairs(4, self, backend), InvariantViolation);
    EXPECT_THROW(RateMatrix::fromPairs(4, duplicate, backend), InvariantViolation);
    EXPECT_THROW(RateMatrix::fromPairs(4, outOfRange, backend), InvariantViolation);
    EXPECT_THROW(RateMatrix::fromPairs(4, negative, backend), InvariantViolation);
  }
}

TEST(RateMatrix, ImpossibleDenseTriangleFailsWithMessage) {
  // 2^24 nodes: a dense triangle of doubles is ~1 PiB, larger than any
  // host. Both dense pair structures must refuse up front with a message
  // that names the node count and the way out, not die in bad_alloc.
  constexpr std::size_t kNodes = std::size_t{1} << 24;
  try {
    const RateMatrix m(kNodes, PairBackend::kDense);
    ADD_FAILURE() << "a " << kNodes << "-node dense RateMatrix was allocated";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("RateMatrix"), std::string::npos) << what;
    EXPECT_NE(what.find("16777216 nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("sparse pair backend"), std::string::npos) << what;
  }
  EstimatorConfig cfg;
  cfg.backend = PairBackend::kDense;
  EXPECT_THROW(ContactRateEstimator(kNodes, cfg, 0.0), std::length_error);
  cfg.mode = EstimatorMode::kSlidingWindow;
  EXPECT_THROW(ContactRateEstimator(kNodes, cfg, 0.0), std::length_error);
  // Paper-scale triangles pass the check.
  EXPECT_NO_THROW(checkDenseTriangleFits(kDensePairNodeThreshold, sizeof(double), "x"));
}

}  // namespace
}  // namespace dtncache::trace
