/// Cross-backend equivalence: the sparse pair-state backend must be
/// bit-identical to the dense triangle on every derived quantity when the
/// default (never-met) rate is 0 — the contract stated in
/// trace/pair_backend.hpp. Randomized contact histories drive both backends
/// through the same API calls and compare raw doubles with ==, not
/// tolerances: byte-equality of sweep outputs is the acceptance bar.

#include <gtest/gtest.h>

#include <vector>

#include "cache/centrality.hpp"
#include "trace/estimator.hpp"
#include "trace/generators.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache {
namespace {

using trace::ContactRateEstimator;
using trace::EstimatorConfig;
using trace::EstimatorMode;
using trace::PairBackend;
using trace::RateMatrix;

/// Deterministic pseudo-random contact history over n nodes: returns
/// (a, b, t) triples with strictly increasing t and skewed pair usage.
std::vector<trace::Contact> randomHistory(std::size_t n, std::size_t count,
                                          std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<trace::Contact> out;
  out.reserve(count);
  sim::SimTime t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    t += rng.exponential(1.0 / 600.0);
    trace::Contact c;
    // Square the draw to skew toward low ids (hub-like reuse of few pairs).
    const double ua = rng.uniform();
    const double ub = rng.uniform();
    c.a = static_cast<NodeId>(ua * ua * static_cast<double>(n));
    c.b = static_cast<NodeId>(ub * ub * static_cast<double>(n));
    if (c.a >= n) c.a = static_cast<NodeId>(n - 1);
    if (c.b >= n) c.b = static_cast<NodeId>(n - 1);
    if (c.a == c.b) c.b = static_cast<NodeId>((c.b + 1) % n);
    c.start = t;
    c.duration = 60.0;
    out.push_back(c);
  }
  return out;
}

TEST(SparseEquivalence, RateMatrixLookupsAndSums) {
  const std::size_t n = 37;
  RateMatrix dense(n, PairBackend::kDense);
  RateMatrix sparse(n, PairBackend::kSparse);
  ASSERT_FALSE(dense.isSparse());
  ASSERT_TRUE(sparse.isSparse());

  sim::Rng rng(7);
  for (std::size_t k = 0; k < 200; ++k) {
    const NodeId i = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    NodeId j = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = static_cast<NodeId>((j + 1) % n);
    const double r = rng.uniform(0.0, 1e-3);
    dense.setRate(i, j, r);
    sparse.setRate(i, j, r);
  }

  for (NodeId i = 0; i < n; ++i) {
    EXPECT_EQ(dense.nodeRateSum(i), sparse.nodeRateSum(i)) << "node " << i;
    for (NodeId j = 0; j < n; ++j) {
      EXPECT_EQ(dense.rate(i, j), sparse.rate(i, j));
      EXPECT_EQ(dense.meetingProbability(i, j, sim::hours(6)),
                sparse.meetingProbability(i, j, sim::hours(6)));
    }
  }
  EXPECT_LT(sparse.observedPairCount(), dense.observedPairCount());
}

TEST(SparseEquivalence, FitFromTraceIdentical) {
  auto config = trace::homogeneousConfig(24, 1.5, sim::days(3), 11);
  const auto synth = trace::generate(config);
  const RateMatrix dense = RateMatrix::fitFromTrace(synth.trace, PairBackend::kDense);
  const RateMatrix sparse = RateMatrix::fitFromTrace(synth.trace, PairBackend::kSparse);
  const std::size_t n = synth.trace.nodeCount();
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) EXPECT_EQ(dense.rate(i, j), sparse.rate(i, j));
}

class SparseEstimatorEquivalence : public ::testing::TestWithParam<EstimatorMode> {};

TEST_P(SparseEstimatorEquivalence, RatesSnapshotsAndStatsMatch) {
  const std::size_t n = 25;
  EstimatorConfig cfg;
  cfg.mode = GetParam();
  cfg.window = sim::hours(12);

  EstimatorConfig denseCfg = cfg;
  denseCfg.backend = PairBackend::kDense;
  EstimatorConfig sparseCfg = cfg;
  sparseCfg.backend = PairBackend::kSparse;
  ContactRateEstimator dense(n, denseCfg);
  ContactRateEstimator sparse(n, sparseCfg);
  ASSERT_FALSE(dense.isSparse());
  ASSERT_TRUE(sparse.isSparse());

  RateMatrix denseOut;
  RateMatrix sparseOut;
  std::vector<NodeId> denseChanged;
  std::vector<NodeId> sparseChanged;

  const auto history = randomHistory(n, 600, 0xfeedULL + static_cast<int>(GetParam()));
  std::size_t fed = 0;
  for (std::size_t round = 1; round <= 6; ++round) {
    const std::size_t until = history.size() * round / 6;
    sim::SimTime now = 0.0;
    for (; fed < until; ++fed) {
      dense.recordContact(history[fed].a, history[fed].b, history[fed].start);
      sparse.recordContact(history[fed].a, history[fed].b, history[fed].start);
      now = history[fed].start;
    }
    now += 1.0;

    for (NodeId i = 0; i < n; ++i) {
      EXPECT_EQ(dense.nodeRateSum(i, now), sparse.nodeRateSum(i, now));
      for (NodeId j = i + 1; j < n; ++j)
        EXPECT_EQ(dense.rate(i, j, now), sparse.rate(i, j, now));
    }

    const auto ds = dense.snapshotInto(denseOut, now, &denseChanged);
    const auto ss = sparse.snapshotInto(sparseOut, now, &sparseChanged);
    EXPECT_EQ(ds.dirtyPairs, ss.dirtyPairs) << "round " << round;
    EXPECT_EQ(ds.changedPairs, ss.changedPairs) << "round " << round;
    EXPECT_EQ(denseChanged, sparseChanged) << "round " << round;
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        EXPECT_EQ(denseOut.rate(i, j), sparseOut.rate(i, j));

    // Incremental result must equal a from-scratch snapshot on both.
    const RateMatrix full = sparse.snapshot(now);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j) EXPECT_EQ(full.rate(i, j), sparseOut.rate(i, j));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SparseEstimatorEquivalence,
                         ::testing::Values(EstimatorMode::kCumulative,
                                           EstimatorMode::kSlidingWindow,
                                           EstimatorMode::kEwma));

TEST(SparseEquivalence, CentralityBatchAndIncremental) {
  const std::size_t n = 31;
  const sim::SimTime window = sim::hours(6);
  RateMatrix dense(n, PairBackend::kDense);
  RateMatrix sparse(n, PairBackend::kSparse);
  sim::Rng rng(21);
  for (std::size_t k = 0; k < 150; ++k) {
    const NodeId i = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    NodeId j = static_cast<NodeId>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (i == j) j = static_cast<NodeId>((j + 1) % n);
    const double r = rng.uniform(0.0, 2e-4);
    dense.setRate(i, j, r);
    sparse.setRate(i, j, r);
  }

  // NCL selection runs once per run over the trace's rate matrix; the
  // sparse backend must pick the same nodes in the same order.
  for (std::size_t k : {1u, 3u, 4u, 5u})
    EXPECT_EQ(cache::selectNcls(dense, window, k), cache::selectNcls(sparse, window, k));
}

TEST(SparseEquivalence, DegenerateSizes) {
  // n = 0 and n = 1 matrices and estimators are valid and inert.
  for (const auto backend : {PairBackend::kDense, PairBackend::kSparse}) {
    RateMatrix zero(0, backend);
    EXPECT_EQ(zero.nodeCount(), 0u);
    EXPECT_EQ(zero.observedPairCount(), 0u);

    RateMatrix one(1, backend);
    EXPECT_EQ(one.nodeCount(), 1u);
    EXPECT_EQ(one.rate(0, 0), 0.0);
    EXPECT_EQ(one.nodeRateSum(0), 0.0);
    EXPECT_EQ(one.neighborCount(0), 0u);

    EstimatorConfig cfg;
    cfg.backend = backend;
    ContactRateEstimator est(1, cfg);
    EXPECT_EQ(est.nodeRateSum(0, sim::hours(1)), 0.0);
    RateMatrix out;
    const auto stats = est.snapshotInto(out, sim::hours(1));
    EXPECT_EQ(stats.dirtyPairs, 0u);
    EXPECT_EQ(stats.changedPairs, 0u);
    EXPECT_EQ(out.nodeCount(), 1u);

    ContactRateEstimator empty(0, cfg);
    EXPECT_EQ(empty.observedPairCount(), 0u);
  }
  // fitFromTrace on an empty single-node trace.
  const trace::ContactTrace empty(1, {});
  const RateMatrix fit = RateMatrix::fitFromTrace(empty);
  EXPECT_EQ(fit.nodeCount(), 1u);
}

}  // namespace
}  // namespace dtncache
