#include "cache/centrality.hpp"

#include <algorithm>
#include <numeric>

#include "sim/assert.hpp"

namespace dtncache::cache {

std::vector<double> contactCapability(const trace::RateMatrix& rates, sim::SimTime window) {
  DTNCACHE_CHECK(window > 0.0);
  const std::size_t n = rates.nodeCount();
  std::vector<double> cap(n, 0.0);
  if (!rates.isSparse()) {
    for (NodeId i = 0; i < n; ++i) {
      double sum = 0.0;
      for (NodeId j = 0; j < n; ++j)
        if (j != i) sum += rates.meetingProbability(i, j, window);
      cap[i] = n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
    }
    return cap;
  }
  // Sparse: stored neighbors (ascending, matching the dense j-order on the
  // pairs that exist) plus the closed-form default term for the rest. With
  // defaultRate == 0 the default term is exactly 0.0 and the two paths are
  // bit-identical.
  const double defaultP = trace::contactProbability(rates.defaultRate(), window);
  for (NodeId i = 0; i < n; ++i) {
    double sum = 0.0;
    rates.forEachNeighbor(i, [&](NodeId, double r) {
      sum += trace::contactProbability(r, window);
    });
    if (defaultP > 0.0)
      sum += defaultP * static_cast<double>(n - 1 - rates.neighborCount(i));
    cap[i] = n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
  }
  return cap;
}

std::vector<NodeId> selectTopCapability(const trace::RateMatrix& rates, sim::SimTime window,
                                        std::size_t k) {
  const auto cap = contactCapability(rates, window);
  std::vector<NodeId> ids(rates.nodeCount());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&cap](NodeId a, NodeId b) {
    if (cap[a] != cap[b]) return cap[a] > cap[b];
    return a < b;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

namespace {

/// The greedy coverage pass shared by both selectNcls overloads, evaluated
/// lazily (CELF). `forEachProb(cand, f)` visits f(j, P(cand meets j in T))
/// for every j != cand the caller's backend stores, in ascending j.
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

double& CentralityState::prob(NodeId i, NodeId j) {
  if (i > j) std::swap(i, j);
  return probs_[static_cast<std::size_t>(i) * (2 * n_ - i - 1) / 2 + (j - i - 1)];
}

double CentralityState::prob(NodeId i, NodeId j) const {
  if (i > j) std::swap(i, j);
  return probs_[static_cast<std::size_t>(i) * (2 * n_ - i - 1) / 2 + (j - i - 1)];
}

double CentralityState::rowProb(NodeId i, NodeId j) const {
  const auto& row = rowProbs_[i];
  const auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const std::pair<NodeId, double>& e, NodeId id) { return e.first < id; });
  return (it != row.end() && it->first == j) ? it->second : defaultP_;
}

void CentralityState::rebuildRow(NodeId i, const trace::RateMatrix& rates,
                                 sim::SimTime window) {
  auto& row = rowProbs_[i];
  row.clear();
  rates.forEachNeighbor(i, [&](NodeId j, double r) {
    row.emplace_back(j, trace::contactProbability(r, window));
  });
}

double CentralityState::rowCapability(NodeId i) const {
  const auto& row = rowProbs_[i];
  double sum = 0.0;
  for (const auto& e : row) sum += e.second;
  if (defaultP_ > 0.0)
    sum += defaultP_ * static_cast<double>(n_ - 1 - row.size());
  return n_ > 1 ? sum / static_cast<double>(n_ - 1) : 0.0;
}

void CentralityState::refresh(const trace::RateMatrix& rates, sim::SimTime window,
                              const std::vector<NodeId>& changedNodes) {
  DTNCACHE_CHECK(window > 0.0);
  const std::size_t n = rates.nodeCount();
  const double defaultP =
      rates.isSparse() ? trace::contactProbability(rates.defaultRate(), window) : 0.0;
  const bool reprime = !primed_ || n_ != n || window_ != window ||
                       sparse_ != rates.isSparse() || defaultP_ != defaultP;
  if (reprime) {
    n_ = n;
    window_ = window;
    sparse_ = rates.isSparse();
    defaultP_ = defaultP;
    capability_.assign(n, 0.0);
    if (sparse_) {
      probs_.clear();
      probs_.shrink_to_fit();
      rowProbs_.resize(n);
      for (NodeId i = 0; i < n; ++i) rebuildRow(i, rates, window);
      for (NodeId i = 0; i < n; ++i) capability_[i] = rowCapability(i);
      return;
    }
    rowProbs_.clear();
    rowProbs_.shrink_to_fit();
    trace::checkDenseTriangleFits(n, sizeof(double), "CentralityState");
    probs_.assign(n >= 2 ? n * (n - 1) / 2 : 0, 0.0);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        prob(i, j) = rates.meetingProbability(i, j, window);
    for (NodeId i = 0; i < n; ++i) {
      double sum = 0.0;
      for (NodeId j = 0; j < n; ++j)
        if (j != i) sum += prob(i, j);
      capability_[i] = n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
    }
    return;
  }
  if (changedNodes.empty()) return;
  // A changed pair reports both endpoints, so refreshing every (i, *) row
  // for i in changedNodes rewrites every stale probability (shared pairs
  // twice, to the same value) and every stale capability.
  if (sparse_) {
    for (const NodeId i : changedNodes) rebuildRow(i, rates, window);
    for (const NodeId i : changedNodes) capability_[i] = rowCapability(i);
    return;
  }
  for (const NodeId i : changedNodes)
    for (NodeId j = 0; j < n; ++j)
      if (j != i) prob(i, j) = rates.meetingProbability(i, j, window);
  for (const NodeId i : changedNodes) {
    double sum = 0.0;
    for (NodeId j = 0; j < n; ++j)
      if (j != i) sum += prob(i, j);
    capability_[i] = n > 1 ? sum / static_cast<double>(n - 1) : 0.0;
  }
}

const std::vector<double>& contactCapability(CentralityState& state,
                                             const trace::RateMatrix& rates,
                                             sim::SimTime window,
                                             const std::vector<NodeId>& changedNodes) {
  state.refresh(rates, window, changedNodes);
  state.primed_ = true;
  return state.capability_;
}

bool selectNcls(CentralityState& state, const trace::RateMatrix& rates,
                sim::SimTime window, std::size_t k,
                const std::vector<NodeId>& changedNodes) {
  const std::size_t n = rates.nodeCount();
  const bool sameShape =
      state.primed_ && state.n_ == n && state.window_ == window && state.k_ == k;
  if (sameShape && changedNodes.empty()) return false;  // short-circuit

  state.refresh(rates, window, changedNodes);
  state.k_ = k;
  k = std::min(k, n);

  // The batch greedy pass over the cached probabilities (same doubles,
  // same visit order => identical picks and tie-breaks). The sparse row
  // cache with a zero default visits only the adjacency rows, as the batch
  // overload does.
  auto& chosen = state.scratchNcls_;
  if (state.sparse_ && state.defaultP_ == 0.0) {
    lazyGreedyNcls(
        n, k,
        [&state](NodeId cand, const auto& f) {
          for (const auto& e : state.rowProbs_[cand]) f(e.first, e.second);
        },
        state.greedy_, chosen);
  } else if (state.sparse_) {
    lazyGreedyNcls(
        n, k,
        [&state, n](NodeId cand, const auto& f) {
          for (NodeId j = 0; j < n; ++j)
            if (j != cand) f(j, state.rowProb(cand, j));
        },
        state.greedy_, chosen);
  } else {
    lazyGreedyNcls(
        n, k,
        [&state, n](NodeId cand, const auto& f) {
          for (NodeId j = 0; j < n; ++j)
            if (j != cand) f(j, state.prob(cand, j));
        },
        state.greedy_, chosen);
  }

  const bool changed = !state.primed_ || chosen != state.ncls_;
  state.ncls_.swap(chosen);
  state.primed_ = true;
  return changed;
}

}  // namespace dtncache::cache
