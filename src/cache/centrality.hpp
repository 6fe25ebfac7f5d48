#pragma once

/// \file centrality.hpp
/// Contact-capability centrality and Network Central Location selection.
///
/// The cooperative-caching substrate (Gao et al., INFOCOM 2011) caches data
/// at Network Central Locations: the nodes best able to meet the rest of
/// the network. A node's metric is its expected reach within a window T,
///     C_i(T) = (1 / (N-1)) · Σ_{j≠i} (1 − e^{−λ_ij·T}),
/// i.e. the mean probability of meeting a random other node within T.
/// NCLs are the top-K nodes by this metric, greedily de-clustered: picking
/// two NCLs that mostly meet the *same* nodes wastes a slot, so after the
/// first pick each candidate's marginal coverage is what counts.
///
/// The greedy pass is evaluated lazily (CELF, Leskovec et al. 2007): the
/// coverage gain is submodular, so a candidate's gain from an earlier pick
/// bounds its current one, and only candidates that reach the top of a
/// max-heap are re-evaluated. The picks — tie-breaks included — are those
/// of the eager scan that re-scores every candidate at every pick (see
/// lazyGreedyNcls in centrality.cpp for why the bound is bitwise). Cost:
/// one pass over every row to seed the heap plus the re-evaluations,
/// instead of k passes. Where the heap stops paying (small dense networks,
/// where every pick re-scores nearly every candidate), the call finishes
/// with the eager scan.
///
/// Sparse rate matrices (trace/pair_backend.hpp) get a sparse evaluation
/// path throughout: capability sums and greedy coverage updates iterate a
/// node's stored neighbors only, so centrality costs about O(E + n log n)
/// plus the re-evaluated rows instead of O(n²k). With a zero default
/// (never-met) rate this is bit-identical to the dense evaluation — a
/// never-met pair contributes exactly 1 − e⁰ = 0.0 to every sum and
/// multiplies coverage by exactly 1.0, so skipping it cannot change any
/// accumulation, comparison, or tie-break.
/// A nonzero default rate keeps the sparse path correct (closed-form
/// default contribution for capability, per-pair lookup for the greedy
/// pass) but no longer byte-identical in association order.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::cache {

/// C_i(T) for every node.
std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window);

/// Top-k nodes by raw capability (ties broken by node id for determinism).
std::vector<NodeId> selectTopCapability(const trace::RateMatrix& rates, sim::SimTime window,
                                        std::size_t k);

/// Greedy marginal-coverage NCL selection: each pick maximizes the increase
/// of E[#nodes covered within T by at least one NCL]. Reduces to top-k when
/// coverage overlaps are negligible; differs (better) in community-
/// structured networks where top-k piles into one community.
std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k);

/// Reusable buffers of the lazy greedy NCL pass.
struct NclGreedyScratch {
  /// A heap entry: `gain` was evaluated after `round` picks had been made.
  struct Candidate {
    double gain;
    NodeId id;
    std::uint32_t round;
  };
  std::vector<double> notCovered;  ///< P(no chosen NCL meets j within T)
  std::vector<char> isChosen;
  std::vector<Candidate> heap;  ///< max-heap on (gain descending, id ascending)
};

/// Incrementally-maintained centrality inputs: the meeting-probability
/// cache (dense triangle, or per-node sparse rows mirroring a sparse rate
/// matrix), per-node capability, and the last NCL set. The incremental
/// contactCapability/selectNcls overloads update it from a list of changed
/// nodes (every node with at least one changed rate-matrix row entry —
/// ContactRateEstimator::snapshotInto emits exactly that), so a maintenance
/// tick re-derives only what its dirty rows can affect and short-circuits
/// entirely when nothing changed. Results are bit-identical to the batch
/// functions: probabilities are cached from the same meetingProbability
/// calls and every sum runs in the same j-order.
class CentralityState {
 public:
  bool primed() const { return primed_; }
  const std::vector<double>& capability() const { return capability_; }
  const std::vector<NodeId>& ncls() const { return ncls_; }
  /// Force a full re-derivation on the next incremental call.
  void invalidate() { primed_ = false; }

  /// Approximation knob for very large sparse networks: when nonzero, a
  /// node's capability sums only its `cap` highest meeting probabilities
  /// (descending order, deterministic) instead of its whole neighbor row.
  /// Hub rows in power-law contact graphs hold most of the row mass in the
  /// head, so a few hundred terms recover the ranking at a fraction of the
  /// cost. Applies to the sparse row cache only (the dense triangle has no
  /// long rows to truncate) and never to the greedy coverage pass, which
  /// stays exact. 0 (default) = exact sums. Changing the cap invalidates.
  void setNeighborCap(std::size_t cap) {
    if (cap != neighborCap_) {
      neighborCap_ = cap;
      primed_ = false;
    }
  }
  std::size_t neighborCap() const { return neighborCap_; }

 private:
  friend const std::vector<double>& contactCapability(
      CentralityState& state, const trace::RateMatrix& rates, sim::SimTime window,
      const std::vector<NodeId>& changedNodes);
  friend bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                         sim::SimTime window, std::size_t k,
                         const std::vector<NodeId>& changedNodes);

  double& prob(NodeId i, NodeId j);
  double prob(NodeId i, NodeId j) const;
  /// Sparse row lookup: cached P(i meets j in T), defaultP_ if not stored.
  double rowProb(NodeId i, NodeId j) const;
  void rebuildRow(NodeId i, const trace::RateMatrix& rates, sim::SimTime window);
  double rowCapability(NodeId i) const;
  void refresh(const trace::RateMatrix& rates, sim::SimTime window,
               const std::vector<NodeId>& changedNodes);

  std::size_t n_ = 0;
  sim::SimTime window_ = 0.0;
  std::size_t k_ = 0;
  bool primed_ = false;
  bool sparse_ = false;      ///< mirrors the source matrix's backend
  double defaultP_ = 0.0;    ///< sparse: P for never-stored pairs
  std::size_t neighborCap_ = 0;
  std::vector<double> probs_;  ///< dense: upper-triangular P(i meets j in T)
  /// Sparse: per node, ascending (j, P(i meets j in T)) for stored pairs.
  std::vector<std::vector<std::pair<NodeId, double>>> rowProbs_;
  std::vector<double> capability_;  ///< C_i(T), kept current per refresh
  std::vector<NodeId> ncls_;        ///< NCL set from the last selectNcls
  NclGreedyScratch greedy_;  ///< kept so warm ticks do not allocate
  std::vector<NodeId> scratchNcls_;
  mutable std::vector<double> capScratch_;  ///< top-cap truncation scratch
};

/// Incremental C_i(T): refresh the cached probabilities/capabilities for
/// `changedNodes` only (full derivation when unprimed or the matrix size /
/// backend / window differ) and return the capability vector. Bit-identical
/// to the batch overload when the neighbor cap is 0.
const std::vector<double>& contactCapability(CentralityState& state,
                                             const trace::RateMatrix& rates,
                                             sim::SimTime window,
                                             const std::vector<NodeId>& changedNodes);

/// Incremental NCL selection: when the state is primed and `changedNodes`
/// is empty (and n/window/k are unchanged) the greedy pass is skipped
/// outright; otherwise the cached probabilities are refreshed and the
/// greedy selection re-runs over them. Returns true when the resulting NCL
/// set differs from the previous call (the first call on an unprimed state
/// reports true). The set itself is `state.ncls()`.
bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                sim::SimTime window, std::size_t k,
                const std::vector<NodeId>& changedNodes);

}  // namespace dtncache::cache
