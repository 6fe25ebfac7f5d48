/// Streamed synthetic mobility (trace/mobility.hpp): determinism, stream
/// ordering, materialize/stream equivalence, sparsity, and rate targets.

#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/pair_key.hpp"
#include "trace/mobility.hpp"
#include "trace/trace_cache.hpp"

namespace dtncache {
namespace {

using trace::RateModel;
using trace::SyntheticMobility;
using trace::SyntheticTraceConfig;

SyntheticTraceConfig smallConfig(RateModel model, std::uint64_t seed = 9) {
  SyntheticTraceConfig c = trace::mobilityConfig(300, seed);
  c.model = model;
  c.duration = sim::days(2);
  c.meanDegree = 12.0;
  return c;
}

TEST(SyntheticMobility, StreamIsDeterministicAndOrdered) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility a(config);
  SyntheticMobility b(config);
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  trace::Contact ca;
  trace::Contact cb;
  sim::SimTime last = 0.0;
  std::size_t count = 0;
  while (a.next(ca)) {
    ASSERT_TRUE(b.next(cb));
    EXPECT_EQ(ca.a, cb.a);
    EXPECT_EQ(ca.b, cb.b);
    EXPECT_EQ(ca.start, cb.start);
    EXPECT_EQ(ca.duration, cb.duration);
    EXPECT_GE(ca.start, last);  // nondecreasing
    EXPECT_LT(ca.start, config.duration);
    last = ca.start;
    ++count;
  }
  EXPECT_FALSE(b.next(cb));
  EXPECT_GT(count, 0u);
}

TEST(SyntheticMobility, MaterializeMatchesStream) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility streamer(config);
  const auto materialized = SyntheticMobility(config).materialize();

  trace::Contact c;
  std::size_t i = 0;
  while (streamer.next(c)) {
    ASSERT_LT(i, materialized.trace.contacts().size());
    const trace::Contact& m = materialized.trace.contacts()[i++];
    EXPECT_EQ(c.a, m.a);
    EXPECT_EQ(c.b, m.b);
    EXPECT_EQ(c.start, m.start);
  }
  EXPECT_EQ(i, materialized.trace.contacts().size());
  EXPECT_EQ(materialized.trace.nodeCount(), config.nodeCount);
  EXPECT_EQ(materialized.community.size(), config.nodeCount);
}

TEST(SyntheticMobility, GenerateDelegatesToMobility) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  const auto viaGenerate = trace::generate(config);
  const auto direct = SyntheticMobility(config).materialize();
  ASSERT_EQ(viaGenerate.trace.contacts().size(), direct.trace.contacts().size());
  for (std::size_t i = 0; i < direct.trace.contacts().size(); ++i)
    EXPECT_EQ(viaGenerate.trace.contacts()[i].start, direct.trace.contacts()[i].start);
  // And the memoizing path keys on the mobility fields too.
  trace::clearTraceCache();
  const auto shared1 = trace::generateShared(config);
  auto tweaked = config;
  tweaked.meanDegree += 1.0;
  const auto shared2 = trace::generateShared(tweaked);
  EXPECT_NE(shared1->trace.contacts().size(), shared2->trace.contacts().size());
}

/// The generator as it was written with a pair-hash duplicate check: the
/// same draws, a hash set of linked pairs instead of range scans. Returns
/// the edges in insertion order (rates filled in) and the contact stream.
struct ReferenceMobility {
  std::vector<trace::PairRate> edges;
  std::vector<trace::Contact> contacts;
};

ReferenceMobility hashDedupReference(const SyntheticTraceConfig& config) {
  ReferenceMobility out;
  const std::size_t n = config.nodeCount;
  const std::size_t communities =
      config.model == RateModel::kMobilityCommunity ? config.communities : 0;
  sim::Rng graphRng = sim::Rng(config.seed).fork(1);
  const auto attempts =
      static_cast<std::size_t>(std::llround(std::max(1.0, config.meanDegree / 2.0)));
  std::unordered_set<std::uint64_t> seen;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t t = 0; t < attempts; ++t) {
      NodeId v;
      if (communities > 0 && !graphRng.bernoulli(config.interCommunityFraction)) {
        const std::size_t r = u % communities;
        const std::size_t members = (n - r + communities - 1) / communities;
        v = static_cast<NodeId>(
            r + communities * static_cast<std::size_t>(
                                  graphRng.uniformInt(0, static_cast<std::int64_t>(members) - 1)));
      } else {
        v = static_cast<NodeId>(graphRng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
      }
      if (v == u || !seen.insert(core::packSymmetricPair(u, v)).second) continue;
      out.edges.push_back({std::min(u, v), std::max(u, v), 0.0});
    }
  }

  sim::Rng rateRng = sim::Rng(config.seed).fork(3);
  double weightSum = 0.0;
  for (auto& e : out.edges) {
    e.rate = rateRng.paretoTruncated(1.0, config.paretoShape, config.rateSpread);
    weightSum += e.rate;
  }
  const double perWeight = config.meanContactsPerPairPerDay / sim::days(1) /
                           (weightSum / static_cast<double>(out.edges.size()));
  for (auto& e : out.edges) e.rate *= perWeight;

  sim::Rng streamRng = sim::Rng(config.seed).fork(2);
  const auto gap = [&](const trace::PairRate& e) {
    if (config.model == RateModel::kMobilityPowerLaw) {
      const double alpha = config.interContactAlpha;
      return streamRng.pareto((alpha - 1.0) / (alpha * e.rate), alpha);
    }
    return streamRng.exponential(e.rate);
  };
  using Next = std::pair<double, std::uint32_t>;
  std::priority_queue<Next, std::vector<Next>, std::greater<Next>> heap;
  for (std::uint32_t i = 0; i < out.edges.size(); ++i)
    if (const double t = gap(out.edges[i]); t < config.duration) heap.emplace(t, i);
  while (!heap.empty()) {
    const auto [t, i] = heap.top();
    heap.pop();
    trace::Contact c;
    c.start = t;
    c.duration = streamRng.exponential(1.0 / config.meanContactDuration);
    c.a = out.edges[i].a;
    c.b = out.edges[i].b;
    out.contacts.push_back(c);
    if (const double next = t + gap(out.edges[i]); next < config.duration) heap.emplace(next, i);
  }
  return out;
}

TEST(SyntheticMobility, RangeScanDedupMatchesHashDedupReference) {
  // 60 nodes with 20 initiations each: many draws collide with a pair that
  // is already linked, from either endpoint's side.
  for (const RateModel model : {RateModel::kMobilityCommunity, RateModel::kMobilityPowerLaw}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SyntheticTraceConfig config = smallConfig(model, seed);
      config.nodeCount = 60;
      config.communities = 3;
      config.meanDegree = 40.0;
      const ReferenceMobility ref = hashDedupReference(config);
      EXPECT_LT(ref.edges.size() + 200, 60u * 20u);  // hundreds of draws collided
      SyntheticMobility mobility(config);
      ASSERT_EQ(mobility.edgeCount(), ref.edges.size());
      const trace::RateMatrix rates = mobility.groundTruthRates();
      EXPECT_EQ(rates.observedPairCount(), ref.edges.size());
      for (const auto& e : ref.edges) EXPECT_EQ(rates.rate(e.a, e.b), e.rate);

      const auto contacts = mobility.drain().contacts();
      ASSERT_EQ(contacts.size(), ref.contacts.size());
      for (std::size_t i = 0; i < contacts.size(); ++i) {
        EXPECT_EQ(contacts[i].a, ref.contacts[i].a);
        EXPECT_EQ(contacts[i].b, ref.contacts[i].b);
        EXPECT_EQ(contacts[i].start, ref.contacts[i].start);
        EXPECT_EQ(contacts[i].duration, ref.contacts[i].duration);
      }
    }
  }
}

TEST(SyntheticMobility, GraphIsSparseAndRatesNormalized) {
  const auto config = smallConfig(RateModel::kMobilityCommunity);
  SyntheticMobility m(config);
  const std::size_t n = config.nodeCount;
  // Sparsity: edges ≈ n * meanDegree / 2, a tiny fraction of the triangle.
  EXPECT_LT(m.pairSparsity(), 0.2);
  EXPECT_GT(m.edgeCount(), n);  // but not degenerate
  EXPECT_LT(static_cast<double>(m.edgeCount()), 1.2 * static_cast<double>(n) * config.meanDegree / 2.0);

  // Ground-truth mean rate over linked pairs hits the configured target.
  const auto rates = m.groundTruthRates();
  ASSERT_TRUE(rates.isSparse());
  EXPECT_EQ(rates.observedPairCount(), m.edgeCount());
  double sum = 0.0;
  for (NodeId i = 0; i < n; ++i) sum += rates.nodeRateSum(i);
  sum /= 2.0;  // each pair counted from both endpoints
  const double meanPerDay =
      sum / static_cast<double>(m.edgeCount()) * sim::days(1);
  EXPECT_NEAR(meanPerDay, config.meanContactsPerPairPerDay,
              0.05 * config.meanContactsPerPairPerDay);
}

TEST(SyntheticMobility, CommunityModelPrefersIntraCommunityEdges) {
  auto config = smallConfig(RateModel::kMobilityCommunity);
  config.interCommunityFraction = 0.05;
  SyntheticMobility m(config);
  const auto& community = m.community();
  ASSERT_EQ(community.size(), config.nodeCount);
  const auto rates = m.groundTruthRates();
  std::size_t intra = 0;
  std::size_t inter = 0;
  for (NodeId i = 0; i < config.nodeCount; ++i) {
    rates.forEachNeighbor(i, [&](NodeId j, double) {
      if (community[i] == community[j])
        ++intra;
      else
        ++inter;
    });
  }
  EXPECT_GT(intra, 5 * inter);
}

TEST(SyntheticMobility, PowerLawGapsKeepTheMeanRate) {
  auto config = smallConfig(RateModel::kMobilityPowerLaw, 17);
  config.duration = sim::days(30);
  config.meanContactsPerPairPerDay = 2.0;
  config.interContactAlpha = 2.5;
  SyntheticMobility m(config);
  EXPECT_TRUE(m.community().empty());
  std::size_t contacts = 0;
  trace::Contact c;
  while (m.next(c)) ++contacts;
  // Long-run contact volume ≈ edges × rate × duration even with Pareto gaps
  // (the per-edge scale is chosen for mean gap = 1/λ). Generous tolerance:
  // heavy tails converge slowly.
  const double expected = static_cast<double>(m.edgeCount()) *
                          config.meanContactsPerPairPerDay *
                          sim::toDays(config.duration);
  EXPECT_NEAR(static_cast<double>(contacts), expected, 0.15 * expected);
}

TEST(SyntheticMobility, SeedChangesTheTrace) {
  const auto a = SyntheticMobility(smallConfig(RateModel::kMobilityCommunity, 1)).materialize();
  const auto b = SyntheticMobility(smallConfig(RateModel::kMobilityCommunity, 2)).materialize();
  EXPECT_NE(a.trace.contacts().size(), b.trace.contacts().size());
}

}  // namespace
}  // namespace dtncache
