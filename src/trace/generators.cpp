#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "trace/mobility.hpp"

namespace dtncache::trace {
namespace {

/// Activity level at absolute time t under the day/night profile:
/// full rate for 16 h, `nightActivity` for the 8 h night block.
double diurnalActivity(sim::SimTime t, double nightActivity) {
  const double hourOfDay = std::fmod(sim::toHours(t), 24.0);
  const bool night = hourOfDay < 4.0 || hourOfDay >= 20.0;
  return night ? nightActivity : 1.0;
}

/// Mean of the diurnal profile over a whole day.
double diurnalMeanActivity(double nightActivity) {
  return (16.0 + 8.0 * nightActivity) / 24.0;
}

}  // namespace

SyntheticTrace generate(const SyntheticTraceConfig& config) {
  // Sparse-graph mobility models stream from trace/mobility.hpp; the dense
  // per-pair enumeration below would be O(N²) in both time and rate storage.
  if (config.model == RateModel::kMobilityCommunity ||
      config.model == RateModel::kMobilityPowerLaw)
    return SyntheticMobility(config).materialize();

  DTNCACHE_CHECK(config.nodeCount >= 2);
  DTNCACHE_CHECK(config.duration > 0.0);
  DTNCACHE_CHECK(config.meanContactsPerPairPerDay > 0.0);

  sim::Rng root(config.seed);
  sim::Rng rateRng = root.fork(1);
  sim::Rng arrivalRng = root.fork(2);
  sim::Rng durationRng = root.fork(3);
  sim::Rng thinRng = root.fork(4);

  const std::size_t n = config.nodeCount;

  SyntheticTrace out;
  out.rates = RateMatrix(n);

  // Community assignment: round-robin gives equal-sized communities, which
  // keeps the preset reproducible without another random process.
  if (config.model == RateModel::kCommunity) {
    DTNCACHE_CHECK(config.communities >= 1);
    out.community.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.community[i] = i % config.communities;
  }

  // Draw unnormalized pairwise weights, then renormalize so the mean
  // *effective* rate (diurnal modulation included) hits the target.
  std::vector<double> weights;
  weights.reserve(n * (n - 1) / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      double w = 1.0;
      switch (config.model) {
        case RateModel::kHomogeneous:
          w = 1.0;
          break;
        case RateModel::kPareto:
          w = rateRng.paretoTruncated(1.0, config.paretoShape, config.rateSpread);
          break;
        case RateModel::kCommunity:
          w = rateRng.paretoTruncated(1.0, config.paretoShape, config.rateSpread);
          if (out.community[i] == out.community[j]) w *= config.intraCommunityBoost;
          break;
        case RateModel::kMobilityCommunity:
        case RateModel::kMobilityPowerLaw:
          break;  // streamed by SyntheticMobility above; never reaches here
      }
      weights.push_back(w);
    }
  }
  const double meanWeight =
      std::accumulate(weights.begin(), weights.end(), 0.0) / static_cast<double>(weights.size());

  const double activityMean =
      config.diurnal ? diurnalMeanActivity(config.nightActivity) : 1.0;
  // Peak (daytime) rate per unit weight such that the time-averaged rate per
  // pair equals the configured target.
  const double targetRate = config.meanContactsPerPairPerDay / sim::days(1);
  const double peakPerWeight = targetRate / (meanWeight * activityMean);

  std::vector<Contact> contacts;
  std::size_t w = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j, ++w) {
      const double peakRate = weights[w] * peakPerWeight;
      out.rates.setRate(i, j, peakRate * activityMean);
      if (peakRate <= 0.0) continue;
      // Thinned Poisson process: generate at the peak rate, keep each
      // arrival with probability activity(t) (exact for piecewise-constant
      // modulation).
      sim::SimTime t = arrivalRng.exponential(peakRate);
      while (t < config.duration) {
        const double keepP =
            config.diurnal ? diurnalActivity(t, config.nightActivity) : 1.0;
        if (keepP >= 1.0 || thinRng.bernoulli(keepP)) {
          Contact c;
          c.start = t;
          c.duration = durationRng.exponential(1.0 / config.meanContactDuration);
          c.a = i;
          c.b = j;
          contacts.push_back(c);
        }
        t += arrivalRng.exponential(peakRate);
      }
    }
  }

  out.trace = ContactTrace(n, std::move(contacts));
  return out;
}

SyntheticTraceConfig realityLikeConfig(std::uint64_t seed) {
  SyntheticTraceConfig c;
  c.nodeCount = 97;
  c.duration = sim::days(30);
  c.model = RateModel::kCommunity;
  c.meanContactsPerPairPerDay = 0.10;  // Reality-scale sparsity
  c.paretoShape = 1.5;
  c.rateSpread = 300.0;
  c.communities = 8;
  c.intraCommunityBoost = 10.0;
  c.diurnal = true;
  c.nightActivity = 0.10;
  c.meanContactDuration = 300.0;
  c.seed = seed;
  return c;
}

SyntheticTraceConfig infocomLikeConfig(std::uint64_t seed) {
  SyntheticTraceConfig c;
  c.nodeCount = 78;
  c.duration = sim::days(4);
  c.model = RateModel::kCommunity;
  c.meanContactsPerPairPerDay = 4.0;  // conference-scale density
  c.paretoShape = 2.0;
  c.rateSpread = 50.0;
  c.communities = 4;
  c.intraCommunityBoost = 3.0;
  c.diurnal = true;
  c.nightActivity = 0.05;  // conference venue empties at night
  c.meanContactDuration = 180.0;
  c.seed = seed;
  return c;
}

SyntheticTraceConfig homogeneousConfig(std::size_t nodes, double contactsPerPairPerDay,
                                       sim::SimTime duration, std::uint64_t seed) {
  SyntheticTraceConfig c;
  c.nodeCount = nodes;
  c.duration = duration;
  c.model = RateModel::kHomogeneous;
  c.meanContactsPerPairPerDay = contactsPerPairPerDay;
  c.diurnal = false;
  c.seed = seed;
  return c;
}

}  // namespace dtncache::trace
