#pragma once

/// \file generators.hpp
/// Synthetic contact-trace generators.
///
/// The paper evaluates on the MIT Reality and Haggle Infocom'06 Bluetooth
/// traces, which are not redistributable here. Following the substitution
/// rule in DESIGN.md we generate traces from the same statistical model the
/// authors use to analyze those traces: heterogeneous pairwise Poisson
/// contact processes. The generator supports
///   - heavy-tailed (truncated Pareto) pairwise rates — the strong rate skew
///     real traces exhibit;
///   - community structure — intra-community pairs meet far more often;
///   - diurnal activity modulation — day/night cycles (Reality) or
///     conference-session bursts (Infocom).
/// Two presets, realityLike() and infocomLike(), match the node counts and
/// qualitative density/duration regimes of the originals.

#include <compare>
#include <cstdint>

#include "sim/rng.hpp"
#include "trace/contact.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {

enum class RateModel {
  kHomogeneous,  ///< every pair shares one rate
  kPareto,       ///< i.i.d. truncated-Pareto pairwise rates
  kCommunity,    ///< Pareto rates, boosted within communities, damped across
  /// Streamed mobility models (trace/mobility.hpp): contacts occur only on
  /// a sparse contact graph (meanDegree edges per node) instead of every
  /// pair, so generation cost and memory are O(nodes + edges + contacts)
  /// and node counts of 10^5–10^6 are practical. Diurnal modulation is not
  /// applied by these models (the thinning pass would defeat streaming);
  /// `diurnal` is ignored.
  kMobilityCommunity,  ///< community-biased sparse graph, exponential gaps
  kMobilityPowerLaw,   ///< uniform sparse graph, Pareto inter-contact gaps
};

struct SyntheticTraceConfig {
  std::size_t nodeCount = 50;
  sim::SimTime duration = sim::days(14);
  RateModel model = RateModel::kCommunity;

  /// Target mean contacts per pair per day (over all pairs, after
  /// community/diurnal adjustments — the generator renormalizes to hit it).
  double meanContactsPerPairPerDay = 0.2;

  /// Pareto shape for the pairwise-rate distribution; smaller = more skew.
  /// 1.5 reproduces the heavy skew of Bluetooth encounter traces.
  double paretoShape = 1.5;
  /// Ratio of the largest to smallest pairwise rate (truncation cap).
  double rateSpread = 200.0;

  std::size_t communities = 6;
  /// Multiplier applied to intra-community pair rates before renormalizing.
  double intraCommunityBoost = 8.0;

  /// Diurnal modulation: rate is scaled by `nightActivity` during the night
  /// third of each day. Disabled when nightActivity == 1.
  bool diurnal = true;
  double nightActivity = 0.15;

  /// Contact durations are exponential with this mean (seconds).
  double meanContactDuration = 120.0;

  // --- mobility models only (kMobilityCommunity / kMobilityPowerLaw) ---

  /// Target mean number of contact-graph neighbors per node. The pair
  /// sparsity of the generated trace is ~meanDegree / (nodeCount - 1).
  double meanDegree = 40.0;
  /// kMobilityCommunity: probability an edge endpoint is drawn from the
  /// whole network instead of the node's own community (the bridges that
  /// keep the graph connected across communities).
  double interCommunityFraction = 0.05;
  /// kMobilityPowerLaw: Pareto shape of the inter-contact gap distribution;
  /// must be > 1 so the mean gap is finite (2.0 ≈ the 1+α exponents
  /// reported for human inter-contact times). Ignored by the exponential
  /// model.
  double interContactAlpha = 2.0;

  std::uint64_t seed = 1;

  /// Storage of the generated rate matrix (trace/pair_backend.hpp). Not a
  /// config key: both backends hold the same rates, so fingerprints stay
  /// equal. The mobility models always build a sparse matrix.
  PairBackend backend = PairBackend::kAuto;

  /// Field-wise: equal configs generate identical traces (the trace memo's
  /// key); the ordering lets sweep dispatch group jobs by config.
  auto operator<=>(const SyntheticTraceConfig&) const = default;
};

struct SyntheticTrace {
  ContactTrace trace;
  /// Ground-truth average pairwise rates (diurnal modulation averaged in);
  /// the "oracle knowledge" arm of the estimator ablation.
  RateMatrix rates;
  /// Community assignment of each node (empty unless kCommunity).
  std::vector<std::size_t> community;
};

/// Generate a trace from the config. Deterministic in config.seed.
SyntheticTrace generate(const SyntheticTraceConfig& config);

/// The contacts generate() would produce, without what else it returns.
/// The mobility models drain their stream and never build the sparse
/// ground-truth rate matrix; the dense models draw contacts from their
/// rates, so they build the matrix and drop it.
ContactTrace generateContacts(const SyntheticTraceConfig& config);

/// 97 nodes / 30 days / strong communities / day-night cycle: a scaled
/// stand-in for the MIT Reality Mining campus trace (97 devices, 9 months;
/// we shorten to 30 days and keep per-day density, which preserves every
/// rate-driven decision while keeping runs laptop-sized).
SyntheticTraceConfig realityLikeConfig(std::uint64_t seed = 1);

/// 78 nodes / 4 days / dense mixing / weak communities: a stand-in for the
/// Haggle Infocom'06 conference trace (78 iMotes, ~4 days, very dense).
SyntheticTraceConfig infocomLikeConfig(std::uint64_t seed = 1);

/// Homogeneous helper for unit tests and analytical cross-checks.
SyntheticTraceConfig homogeneousConfig(std::size_t nodes, double contactsPerPairPerDay,
                                       sim::SimTime duration, std::uint64_t seed = 1);

}  // namespace dtncache::trace
