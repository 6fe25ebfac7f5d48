#include "cache/centrality.hpp"

#include <algorithm>
#include <cstdint>

#include "sim/assert.hpp"

namespace dtncache::cache {

namespace {

/// Buffers of the lazy greedy NCL pass.
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

/// The greedy coverage pass of selectNcls, evaluated lazily (CELF).
/// `forEachProb(cand, f)` visits f(j, P(cand meets j in T)) for every
/// j != cand the caller's backend stores, in ascending j.
///
/// A candidate's gain Σ_{j unchosen} notCovered[j]·P(cand, j) only shrinks
/// as picks are made: every notCovered[j] is multiplied by a factor in
/// [0, 1] (rounding is monotone, so the product never exceeds the old
/// value), newly chosen j drop out, and the sum runs over the same terms in
/// the same order. A gain computed at an earlier pick is therefore a bitwise
/// upper bound on the current one. With the heap ordered by (gain
/// descending, id ascending), a fresh entry on top beats every stale bound
/// below it, so re-scoring only the candidates that reach the top picks
/// exactly what the eager scan's "first strictly greater gain" picks.
///
/// Where every node covers almost every other (a small dense network),
/// each pick shrinks every gain and nearly every candidate surfaces stale:
/// the heap then only adds sift cost to the eager scan (about 15% of a
/// 56-node maintenance tick). So a pick that has to re-score more than
/// 1/16 of the remaining candidates hands the rest of the call to the eager
/// scan, which picks the same nodes. Sparse 50k-node mobility matrices
/// re-score one candidate per pick and never switch.
template <typename ForEachProb>
void lazyGreedyNcls(std::size_t n, std::size_t k, const ForEachProb& forEachProb,
                    NclGreedyScratch& s, std::vector<NodeId>& chosen) {
  using Candidate = NclGreedyScratch::Candidate;
  chosen.clear();
  s.notCovered.assign(n, 1.0);
  s.isChosen.assign(n, 0);
  s.heap.clear();
  if (k == 0) return;

  const auto gainOf = [&s, &forEachProb](NodeId cand) {
    double gain = 0.0;
    forEachProb(cand, [&s, &gain](NodeId j, double p) {
      if (!s.isChosen[j]) gain += s.notCovered[j] * p;
    });
    return gain;
  };
  const auto below = [](const Candidate& a, const Candidate& b) {
    return a.gain != b.gain ? a.gain < b.gain : a.id > b.id;
  };
  for (NodeId cand = 0; cand < n; ++cand) s.heap.push_back({gainOf(cand), cand, 0});
  std::make_heap(s.heap.begin(), s.heap.end(), below);

  bool lazy = true;
  for (std::uint32_t pick = 0; pick < k; ++pick) {
    NodeId best = kNoNode;
    if (lazy) {
      for (std::size_t rescored = 0; s.heap.front().round != pick; ++rescored) {
        if (rescored > (n - pick) / 16) {
          lazy = false;
          break;
        }
        std::pop_heap(s.heap.begin(), s.heap.end(), below);
        Candidate& stale = s.heap.back();
        stale.gain = gainOf(stale.id);
        stale.round = pick;
        std::push_heap(s.heap.begin(), s.heap.end(), below);
      }
    }
    if (lazy) {
      std::pop_heap(s.heap.begin(), s.heap.end(), below);
      best = s.heap.back().id;
      s.heap.pop_back();
    } else {
      double bestGain = -1.0;
      for (NodeId cand = 0; cand < n; ++cand) {
        if (s.isChosen[cand]) continue;
        const double gain = gainOf(cand);
        if (gain > bestGain) {
          bestGain = gain;
          best = cand;
        }
      }
    }
    DTNCACHE_CHECK(best != kNoNode);
    s.isChosen[best] = 1;
    chosen.push_back(best);
    forEachProb(best, [&s](NodeId j, double p) { s.notCovered[j] *= 1.0 - p; });
  }
}

}  // namespace

std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k) {
  const std::size_t n = rates.nodeCount();
  k = std::min(k, n);
  NclGreedyScratch scratch;
  std::vector<NodeId> chosen;
  chosen.reserve(k);
  // Sparse fast path: with a zero default rate a candidate's gain has
  // nonzero terms only at stored neighbors (P == 0.0 elsewhere), and the
  // coverage update multiplies non-neighbors by exactly 1.0 — visiting the
  // adjacency row only changes no bit. A nonzero default keeps the generic
  // per-pair visit (correct, dense-cost).
  if (rates.isSparse() && trace::contactProbability(rates.defaultRate(), window) == 0.0) {
    lazyGreedyNcls(
        n, k,
        [&](NodeId cand, const auto& f) {
          rates.forEachNeighbor(
              cand, [&](NodeId j, double r) { f(j, trace::contactProbability(r, window)); });
        },
        scratch, chosen);
  } else {
    lazyGreedyNcls(
        n, k,
        [&](NodeId cand, const auto& f) {
          for (NodeId j = 0; j < n; ++j)
            if (j != cand) f(j, rates.meetingProbability(cand, j, window));
        },
        scratch, chosen);
  }
  return chosen;
}

}  // namespace dtncache::cache
