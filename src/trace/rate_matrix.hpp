#pragma once

/// \file rate_matrix.hpp
/// Symmetric matrix of pairwise contact rates λ_ij, dense or sparse.
///
/// The exponential pairwise inter-contact model — contacts of pair (i,j)
/// arriving as a Poisson process with rate λ_ij — is the analytical backbone
/// of the paper: every refresh-probability and replication decision reduces
/// to functions of λ_ij. A RateMatrix is either ground truth (driving a
/// synthetic generator, or fit from a whole trace) or a node's local
/// estimate (trace/estimator.hpp).
///
/// Two storage backends behind one interface (trace/pair_backend.hpp):
///  - dense: the classic n(n-1)/2 upper-triangular array — one indexed load
///    per lookup, ideal at paper scale (tens to hundreds of nodes);
///  - sparse: observed pairs only, in an open-addressing SlotIndex keyed by
///    packed pair plus per-node ascending adjacency rows. Pairs never
///    stored read as `defaultRate()` (0 unless constructed otherwise), and
///    row iteration / rate sums touch only stored neighbors — the
///    representation that makes 10^5–10^6-node scenarios fit in memory.
/// Backend choice never changes values: with defaultRate == 0 every derived
/// quantity is bit-identical across backends (skipping a 0.0 term of a
/// non-negative ascending sum cannot change the accumulation); a nonzero
/// default is folded in closed form, mathematically equal but associating
/// differently (see pair_backend.hpp for the full contract).

#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/slot_index.hpp"
#include "sim/assert.hpp"
#include "trace/contact.hpp"
#include "trace/pair_backend.hpp"

namespace dtncache::trace {

/// P(at least one contact of a Poisson(rate) process within window t).
inline double contactProbability(double rate, sim::SimTime window) {
  DTNCACHE_CHECK(rate >= 0.0 && window >= 0.0);
  return 1.0 - std::exp(-rate * window);
}

/// Expected delay until the next contact of a Poisson(rate) process;
/// infinity when rate == 0.
inline double expectedContactDelay(double rate) {
  return rate > 0.0 ? 1.0 / rate : std::numeric_limits<double>::infinity();
}

/// One entry of a bulk RateMatrix build: λ for the unordered pair {a, b}.
struct PairRate {
  NodeId a = 0;
  NodeId b = 0;
  double rate = 0.0;  ///< λ: mean contacts per second
};

class RateMatrix {
 public:
  RateMatrix() = default;

  /// Auto-selected backend (dense at paper scale, sparse above the
  /// threshold). n == 0 and
  /// n == 1 are valid degenerate matrices with no pairs.
  explicit RateMatrix(std::size_t n) : RateMatrix(n, PairBackend::kAuto) {}

  /// Explicit backend; `defaultRate` is what never-stored pairs read as
  /// (sparse backend only — the dense triangle starts at 0 and a nonzero
  /// default would have to be materialized, defeating its point).
  RateMatrix(std::size_t n, PairBackend backend, double defaultRate = 0.0)
      : n_(n), sparse_(useSparsePairs(n, backend)), defaultRate_(defaultRate) {
    DTNCACHE_CHECK(defaultRate >= 0.0);
    if (sparse_) {
      neighbors_.resize(n);
    } else {
      DTNCACHE_CHECK_MSG(defaultRate == 0.0,
                         "dense RateMatrix supports only defaultRate == 0");
      checkDenseTriangleFits(n, sizeof(double), "RateMatrix");
      rates_.assign(n >= 2 ? n * (n - 1) / 2 : 0, 0.0);
    }
  }

  std::size_t nodeCount() const { return n_; }
  bool isSparse() const { return sparse_; }
  double defaultRate() const { return defaultRate_; }

  /// Pairs with a stored entry: every observed pair for the sparse backend,
  /// the whole triangle for the dense one.
  std::size_t observedPairCount() const {
    return sparse_ ? values_.size() : rates_.size();
  }

  /// Stored neighbors of node i (n-1 for the dense backend).
  std::size_t neighborCount(NodeId i) const {
    DTNCACHE_CHECK(i < n_);
    if (sparse_) return neighbors_[i].size();
    return n_ >= 1 ? n_ - 1 : 0;
  }

  double rate(NodeId i, NodeId j) const {
    if (i == j) return 0.0;
    if (!sparse_) return rates_[index(i, j)];
    DTNCACHE_CHECK(i < n_ && j < n_);
    const std::uint32_t slot = index_.find(core::packSymmetricPair(i, j));
    return slot == core::SlotIndex::kNoSlot ? defaultRate_ : values_[slot];
  }

  void setRate(NodeId i, NodeId j, double lambda) {
    DTNCACHE_CHECK(i != j);
    DTNCACHE_CHECK(lambda >= 0.0);
    if (!sparse_) {
      rates_[index(i, j)] = lambda;
      return;
    }
    DTNCACHE_CHECK(i < n_ && j < n_);
    slotOf(i, j) = lambda;
  }

  /// P(i meets j at least once within `window`).
  double meetingProbability(NodeId i, NodeId j, sim::SimTime window) const {
    return contactProbability(rate(i, j), window);
  }

  /// Sum of rates from node i to all others (its total contact activity).
  /// Sparse: stored neighbors in ascending order plus the closed-form
  /// default contribution for the rest.
  double nodeRateSum(NodeId i) const {
    double s = 0.0;
    if (!sparse_) {
      for (NodeId j = 0; j < n_; ++j)
        if (j != i) s += rate(i, j);
      return s;
    }
    DTNCACHE_CHECK(i < n_);
    for (const Neighbor& nb : neighbors_[i]) s += values_[nb.slot];
    if (defaultRate_ > 0.0 && n_ >= 1)
      s += defaultRate_ * static_cast<double>(n_ - 1 - neighbors_[i].size());
    return s;
  }

  /// Visit node i's stored neighbors as f(NodeId j, double rate), in
  /// ascending j. Dense backend: every j != i (stored by definition).
  template <typename F>
  void forEachNeighbor(NodeId i, F&& f) const {
    DTNCACHE_CHECK(i < n_);
    if (sparse_) {
      for (const Neighbor& nb : neighbors_[i]) f(nb.id, values_[nb.slot]);
      return;
    }
    for (NodeId j = 0; j < n_; ++j)
      if (j != i) f(j, rates_[index(i, j)]);
  }

  /// Fit the maximum-likelihood rate matrix from a trace:
  /// λ_ij = (#contacts of pair) / (trace duration).
  static RateMatrix fitFromTrace(const ContactTrace& trace,
                                 PairBackend backend = PairBackend::kAuto);

  /// Bulk build from distinct pairs: equal to a setRate() loop over
  /// `pairs` in order (pair k gets value slot k), but the sparse index is
  /// sized once and each adjacency row is filled, then sorted once, instead
  /// of one hash insert and two sorted row inserts per pair. Self,
  /// duplicate and out-of-range pairs and negative rates throw.
  static RateMatrix fromPairs(std::size_t n, std::span<const PairRate> pairs,
                              PairBackend backend = PairBackend::kAuto);

 private:
  struct Neighbor {
    NodeId id;
    std::uint32_t slot;  ///< into values_
  };

  std::size_t index(NodeId i, NodeId j) const {
    DTNCACHE_CHECK(i < n_ && j < n_);
    if (i > j) std::swap(i, j);
    // Row-major upper triangle, row i holds (n-1-i) entries.
    const std::size_t row = i;
    const std::size_t offset = row * (2 * n_ - row - 1) / 2;
    return offset + (j - i - 1);
  }

  /// Sparse backend: value slot of pair (i, j), created (at defaultRate_,
  /// with both adjacency rows updated) if absent.
  double& slotOf(NodeId i, NodeId j);

  /// Ascending insert of (j, slot) into row i (no-op if already present —
  /// callers only insert fresh pairs).
  void insertNeighbor(NodeId i, NodeId j, std::uint32_t slot);

  std::size_t n_ = 0;
  bool sparse_ = false;
  double defaultRate_ = 0.0;

  // Dense backend.
  std::vector<double> rates_;

  // Sparse backend.
  core::SlotIndex index_;                       ///< packed pair -> slot
  std::vector<double> values_;                  ///< slot -> λ
  std::vector<std::vector<Neighbor>> neighbors_;  ///< per node, ascending j
};

}  // namespace dtncache::trace
