#pragma once

/// \file mobility.hpp
/// Streamed synthetic mobility: large-N contact generation without the
/// O(N²) pair enumeration.
///
/// The dense generators (trace/generators.hpp) draw one Poisson process per
/// node pair — exactly the paper's model, but quadratic in node count and
/// hopeless past a few thousand nodes. The mobility models keep the same
/// pairwise-Poisson analytics on a *sparse contact graph*: each node gets
/// ~meanDegree partners it can ever meet (community-biased or uniform), and
/// only those edges carry a contact process. Real opportunistic traces are
/// exactly this sparse — almost all of the n²/2 device pairs never meet —
/// so the restriction is a fidelity feature, not just a cost dodge.
///
/// Two models:
///  - RateModel::kMobilityCommunity: partners drawn from the node's own
///    community (round-robin assignment, communities = config.communities)
///    except an interCommunityFraction of global "bridge" picks;
///    exponential inter-contact gaps (pairwise Poisson, the paper's model).
///  - RateModel::kMobilityPowerLaw: partners drawn uniformly; inter-contact
///    gaps are Pareto(shape = interContactAlpha > 1) with the scale chosen
///    per edge so the mean gap still equals 1/λ_e — the heavy-tailed
///    inter-contact behavior reported for human mobility, as a
///    model-mismatch stressor for the exponential-assumption estimators.
///
/// Per-edge rates are truncated-Pareto skewed (paretoShape / rateSpread)
/// and renormalized so the mean rate over *linked* pairs hits
/// meanContactsPerPairPerDay. Diurnal modulation is not applied (thinning
/// would break the O(1)-per-contact streaming); `diurnal` is ignored.
///
/// Generation streams: a min-heap over edges keyed by (next contact time,
/// edge id) yields contacts one at a time in nondecreasing start order,
/// with O(nodes + edges) memory and O(log edges) per contact. All
/// randomness is drawn from substreams of config.seed in deterministic
/// construction/heap-pop order, so a config reproduces its trace exactly —
/// streamed or materialized.

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/rng.hpp"
#include "trace/generators.hpp"

namespace dtncache::trace {

class SyntheticMobility {
 public:
  /// `config.model` must be one of the mobility models. Deterministic in
  /// config (seed included): same config, same edge set, same stream.
  explicit SyntheticMobility(const SyntheticTraceConfig& config);

  /// Produce the next contact (start < config.duration, nondecreasing
  /// start). Returns false when the stream is exhausted.
  bool next(Contact& out);

  std::size_t nodeCount() const { return config_.nodeCount; }
  /// Linked pairs in the contact graph (pairs that can ever meet).
  std::size_t edgeCount() const { return edges_.size(); }
  /// Observed-pair fraction: edgeCount / (n(n-1)/2).
  double pairSparsity() const;
  /// Community of each node (empty for kMobilityPowerLaw).
  const std::vector<std::size_t>& community() const { return community_; }

  /// Ground-truth rate matrix of the contact graph (sparse backend;
  /// never-linked pairs read as rate 0).
  RateMatrix groundTruthRates() const;

  /// Drain the rest of the stream into a contact trace, without building
  /// the ground-truth rate matrix (the memo's contacts-only entries).
  ContactTrace drain();

  /// Drain the whole stream into a SyntheticTrace (trace + ground-truth
  /// rates + communities), the drop-in equivalent of generate(). Call on a
  /// freshly constructed instance; contacts already taken via next() are
  /// not replayed.
  SyntheticTrace materialize();

 private:
  using Edge = PairRate;  ///< a < b; rate is λ_e, mean contacts per second

  void buildGraph();
  void assignRates();
  /// Gap to an edge's next contact (exponential or Pareto per the model).
  double drawGap(const Edge& e);
  void scheduleInitial();

  SyntheticTraceConfig config_;
  sim::Rng streamRng_;  ///< one shared stream, consumed in heap-pop order
  std::vector<Edge> edges_;
  std::vector<std::size_t> community_;
  /// Min-heap of (next contact time, edge id); the id tie-break makes the
  /// pop order — and therefore the RNG consumption order — deterministic.
  std::priority_queue<std::pair<double, std::uint32_t>,
                      std::vector<std::pair<double, std::uint32_t>>,
                      std::greater<std::pair<double, std::uint32_t>>>
      heap_;
};

/// Large-N preset: community-structured sparse mobility sized by `nodes`
/// (≈64 nodes per community, degree 40, Reality-like per-pair density).
/// The scaling recipe in docs/scaling.md builds on this.
SyntheticTraceConfig mobilityConfig(std::size_t nodes, std::uint64_t seed = 1);

}  // namespace dtncache::trace
