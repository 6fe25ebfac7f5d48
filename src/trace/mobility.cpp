#include "trace/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/assert.hpp"

namespace dtncache::trace {

SyntheticMobility::SyntheticMobility(const SyntheticTraceConfig& config)
    : config_(config), streamRng_(sim::Rng(config.seed).fork(2)) {
  DTNCACHE_CHECK(config.model == RateModel::kMobilityCommunity ||
                 config.model == RateModel::kMobilityPowerLaw);
  DTNCACHE_CHECK(config.nodeCount >= 2);
  DTNCACHE_CHECK(config.duration > 0.0);
  DTNCACHE_CHECK(config.meanContactsPerPairPerDay > 0.0);
  DTNCACHE_CHECK(config.meanDegree > 0.0);
  if (config.model == RateModel::kMobilityCommunity) {
    DTNCACHE_CHECK(config.communities >= 1);
    DTNCACHE_CHECK(config.interCommunityFraction >= 0.0 &&
                   config.interCommunityFraction <= 1.0);
  }
  if (config.model == RateModel::kMobilityPowerLaw)
    DTNCACHE_CHECK_MSG(config.interContactAlpha > 1.0,
                       "Pareto inter-contact gaps need shape > 1 for a finite mean");
  buildGraph();
  assignRates();
  scheduleInitial();
}

void SyntheticMobility::buildGraph() {
  const std::size_t n = config_.nodeCount;
  const std::size_t communities =
      config_.model == RateModel::kMobilityCommunity ? config_.communities : 0;
  if (communities > 0) {
    // Round-robin assignment, matching the dense kCommunity generator.
    community_.resize(n);
    for (std::size_t i = 0; i < n; ++i) community_[i] = i % communities;
  }

  // Each node initiates ~meanDegree/2 edges; every edge raises the degree
  // of both endpoints, so the mean degree lands near the target. Collisions
  // (self, duplicate pair) are skipped rather than redrawn — the degree
  // target is approximate and skipping keeps the draw count, and therefore
  // the stream, a deterministic function of the config.
  sim::Rng graphRng = sim::Rng(config_.seed).fork(1);
  const std::size_t attempts = static_cast<std::size_t>(
      std::llround(std::max(1.0, config_.meanDegree / 2.0)));
  edges_.reserve(n * attempts);
  // A pair {u, v} can only have been linked by u earlier in this round or,
  // when v < u, by v in its own round; both are contiguous runs of edges_
  // (u's starts at first[u], v's is [first[v], first[v + 1])), each about
  // `attempts` long. Scanning them is the duplicate check — no pair hash.
  std::vector<std::size_t> first(n, 0);
  const auto linkedIn = [this](std::size_t from, std::size_t to, NodeId a, NodeId b) {
    for (std::size_t i = from; i < to; ++i)
      if (edges_[i].a == a && edges_[i].b == b) return true;
    return false;
  };
  for (NodeId u = 0; u < n; ++u) {
    first[u] = edges_.size();
    for (std::size_t t = 0; t < attempts; ++t) {
      NodeId v;
      if (communities > 0 && !graphRng.bernoulli(config_.interCommunityFraction)) {
        // Uniform member of u's community: ids ≡ u (mod C).
        const std::size_t r = community_[u];
        const std::size_t members = (n - r + communities - 1) / communities;
        v = static_cast<NodeId>(
            r + communities * static_cast<std::size_t>(
                                  graphRng.uniformInt(0, static_cast<std::int64_t>(members) - 1)));
      } else {
        v = static_cast<NodeId>(graphRng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
      }
      if (v == u) continue;
      // Endpoints are stored normalized (a < b) so the stream emits contacts
      // in the same orientation ContactTrace normalizes to — materialize()
      // must byte-match the stream.
      const NodeId a = std::min(u, v);
      const NodeId b = std::max(u, v);
      if (linkedIn(first[u], edges_.size(), a, b)) continue;
      if (v < u && linkedIn(first[v], first[v + 1], a, b)) continue;
      edges_.push_back(Edge{a, b, 0.0});
    }
  }
}

void SyntheticMobility::assignRates() {
  // Truncated-Pareto weight skew, renormalized so the mean rate over linked
  // pairs hits the configured contacts/pair/day (dense models target the
  // all-pairs mean; on a sparse graph only linked pairs can meet, so the
  // target naturally applies to them).
  sim::Rng rateRng = sim::Rng(config_.seed).fork(3);
  double weightSum = 0.0;
  for (Edge& e : edges_) {
    e.rate = rateRng.paretoTruncated(1.0, config_.paretoShape, config_.rateSpread);
    weightSum += e.rate;
  }
  if (edges_.empty()) return;
  const double meanWeight = weightSum / static_cast<double>(edges_.size());
  const double targetRate = config_.meanContactsPerPairPerDay / sim::days(1);
  const double perWeight = targetRate / meanWeight;
  for (Edge& e : edges_) e.rate *= perWeight;
}

double SyntheticMobility::drawGap(const Edge& e) {
  if (config_.model == RateModel::kMobilityPowerLaw) {
    // Pareto(x_m, α) with x_m = (α-1)/(α·λ) has mean x_m·α/(α-1) = 1/λ:
    // same long-run contact rate as the exponential model, heavier tail.
    const double alpha = config_.interContactAlpha;
    const double xm = (alpha - 1.0) / (alpha * e.rate);
    return streamRng_.pareto(xm, alpha);
  }
  return streamRng_.exponential(e.rate);
}

void SyntheticMobility::scheduleInitial() {
  for (std::uint32_t idx = 0; idx < edges_.size(); ++idx) {
    const double t = drawGap(edges_[idx]);
    if (t < config_.duration) heap_.emplace(t, idx);
  }
}

bool SyntheticMobility::next(Contact& out) {
  if (heap_.empty()) return false;
  const auto [t, idx] = heap_.top();
  heap_.pop();
  const Edge& e = edges_[idx];
  out.start = t;
  out.duration = streamRng_.exponential(1.0 / config_.meanContactDuration);
  out.a = e.a;
  out.b = e.b;
  const double nextT = t + drawGap(e);
  if (nextT < config_.duration) heap_.emplace(nextT, idx);
  return true;
}

double SyntheticMobility::pairSparsity() const {
  const std::size_t n = config_.nodeCount;
  const std::size_t triangle = n >= 2 ? n * (n - 1) / 2 : 0;
  return triangle > 0 ? static_cast<double>(edges_.size()) / static_cast<double>(triangle)
                      : 0.0;
}

RateMatrix SyntheticMobility::groundTruthRates() const {
  return RateMatrix::fromPairs(config_.nodeCount, edges_, PairBackend::kSparse);
}

ContactTrace SyntheticMobility::drain() {
  std::vector<Contact> contacts;
  Contact c;
  while (next(c)) contacts.push_back(c);
  return ContactTrace(config_.nodeCount, std::move(contacts));
}

SyntheticTrace SyntheticMobility::materialize() {
  SyntheticTrace out;
  out.rates = groundTruthRates();
  out.community = community_;
  out.trace = drain();
  return out;
}

SyntheticTraceConfig mobilityConfig(std::size_t nodes, std::uint64_t seed) {
  SyntheticTraceConfig c;
  c.nodeCount = nodes;
  c.duration = sim::days(14);
  c.model = RateModel::kMobilityCommunity;
  c.meanContactsPerPairPerDay = 0.10;  // Reality-scale per-linked-pair density
  c.paretoShape = 1.5;
  c.rateSpread = 300.0;
  c.communities = std::max<std::size_t>(1, nodes / 64);
  c.interCommunityFraction = 0.05;
  c.meanDegree = 40.0;
  c.diurnal = false;  // ignored by mobility models; set for clarity
  c.meanContactDuration = 300.0;
  c.seed = seed;
  return c;
}

}  // namespace dtncache::trace
