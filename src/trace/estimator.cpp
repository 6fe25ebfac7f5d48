#include "trace/estimator.hpp"

#include <algorithm>

#include "core/pair_key.hpp"
#include "sim/assert.hpp"
#include "sim/shard_context.hpp"

namespace dtncache::trace {

ContactRateEstimator::ContactRateEstimator(std::size_t nodeCount, EstimatorConfig config,
                                           sim::SimTime startTime)
    : nodeCount_(nodeCount),
      config_(config),
      startTime_(startTime),
      sparse_(useSparsePairs(nodeCount, config.backend)) {
  DTNCACHE_CHECK(config.window > 0.0);
  DTNCACHE_CHECK(config.ewmaAlpha > 0.0 && config.ewmaAlpha <= 1.0);
  DTNCACHE_CHECK(config.priorRate >= 0.0);
  if (sparse_) {
    nodeNbrs_.resize(nodeCount);
  } else {
    // Pair state, a recent-contact row in sliding-window mode, two bits.
    const bool sliding = config.mode == EstimatorMode::kSlidingWindow;
    checkDenseTriangleFits(
        nodeCount,
        sizeof(PairState) + (sliding ? sizeof(recent_[0]) : 0) + 2.0 / 8.0,
        "ContactRateEstimator");
    pairs_.resize(triangleCount());
    if (sliding) recent_.resize(pairs_.size());
    dirtyBits_ = core::DenseBitset(pairs_.size());
    varyingBits_ = core::DenseBitset(pairs_.size());
  }
  changedRowBits_ = core::DenseBitset(nodeCount);
}

std::size_t ContactRateEstimator::pairIndex(NodeId i, NodeId j) const {
  DTNCACHE_CHECK(i != j && i < nodeCount_ && j < nodeCount_);
  if (i > j) std::swap(i, j);
  return static_cast<std::size_t>(i) * (2 * nodeCount_ - i - 1) / 2 + (j - i - 1);
}

std::uint32_t ContactRateEstimator::findPair(NodeId i, NodeId j) const {
  if (!sparse_) return static_cast<std::uint32_t>(pairIndex(i, j));
  DTNCACHE_CHECK(i != j && i < nodeCount_ && j < nodeCount_);
  return pairSlots_.find(core::packSymmetricPair(i, j));
}

std::uint32_t ContactRateEstimator::findOrCreatePair(NodeId a, NodeId b) {
  if (!sparse_) return static_cast<std::uint32_t>(pairIndex(a, b));
  DTNCACHE_CHECK(a != b && a < nodeCount_ && b < nodeCount_);
  const std::uint64_t key = core::packSymmetricPair(a, b);
  std::uint32_t idx = pairSlots_.find(key);
  if (idx == core::SlotIndex::kNoSlot) {
    idx = static_cast<std::uint32_t>(pairs_.size());
    pairs_.emplace_back();
    if (config_.mode == EstimatorMode::kSlidingWindow) recent_.emplace_back();
    pairSlots_.insert(key, idx);
    const auto insertNbr = [&](NodeId u, NodeId v) {
      auto& row = nodeNbrs_[u];
      const auto pos = std::lower_bound(
          row.begin(), row.end(), v,
          [](const NodeNbr& nb, NodeId id) { return nb.id < id; });
      row.insert(pos, NodeNbr{v, idx});
    };
    insertNbr(a, b);
    insertNbr(b, a);
  }
  return idx;
}

std::uint32_t ContactRateEstimator::indexOfKey(std::uint64_t key) const {
  if (!sparse_) return static_cast<std::uint32_t>(pairIndex(core::pairHigh(key), core::pairLow(key)));
  const std::uint32_t idx = pairSlots_.find(key);
  DTNCACHE_CHECK(idx != core::SlotIndex::kNoSlot);
  return idx;
}

void ContactRateEstimator::recordContact(NodeId a, NodeId b, sim::SimTime t) {
  std::uint32_t idx;
  if (shardMode_) {
    // Workers never create state: the pair was pre-created by
    // enterShardMode. Dirty marking goes to this context's sink, tagged
    // with the recording event's key for the drain-time merge.
    idx = findPair(a, b);
    DTNCACHE_CHECK(idx != kNoPair);
    ShardSink& sink = shardSinks_[sim::tlsShard.ctx];
    if (sink.bits.set(idx))
      sink.entries.push_back(ShardSink::Entry{sim::tlsShard.evTime, sim::tlsShard.evSeq,
                                              idx, core::packSymmetricPair(a, b)});
  } else {
    idx = findOrCreatePair(a, b);
    if (dirtyBits_.set(idx)) dirtyKeys_.push_back(core::packSymmetricPair(a, b));
  }
  PairState& s = pairs_[idx];
  ++s.totalCount;
  if (s.lastContact != sim::kNever) {
    const double interval = t - s.lastContact;
    if (interval > 0.0) {
      s.ewmaInterval = s.ewmaInterval == 0.0
                           ? interval
                           : config_.ewmaAlpha * interval +
                                 (1.0 - config_.ewmaAlpha) * s.ewmaInterval;
    }
  }
  s.lastContact = t;
  if (config_.mode == EstimatorMode::kSlidingWindow) {
    auto& recent = recent_[idx];
    recent.push_back(t);
    while (s.recentStart < recent.size() && recent[s.recentStart] < t - config_.window)
      ++s.recentStart;
    // Compact once the dead prefix dominates, keeping appends amortized O(1).
    if (s.recentStart > recent.size() / 2 && s.recentStart > 16) {
      recent.erase(recent.begin(), recent.begin() + s.recentStart);
      s.recentStart = 0;
    }
  }
}

double ContactRateEstimator::rateOf(std::uint32_t idx, sim::SimTime now) const {
  if (idx == kNoPair) return config_.priorRate;
  const PairState* s = &pairs_[idx];
  if (s->totalCount == 0) return config_.priorRate;

  switch (config_.mode) {
    case EstimatorMode::kCumulative: {
      const double elapsed = now - startTime_;
      if (elapsed <= 0.0) return config_.priorRate;
      return static_cast<double>(s->totalCount) / elapsed;
    }
    case EstimatorMode::kSlidingWindow: {
      // Count contacts inside the window ending at `now`; the row is
      // pruned relative to the *recording* times, so prune again here.
      const auto& recent = recent_[idx];
      std::size_t inWindow = 0;
      for (std::size_t k = recent.size(); k > s->recentStart; --k) {
        const sim::SimTime at = recent[k - 1];
        if (at < now - config_.window) break;
        if (at <= now) ++inWindow;
      }
      const double span = std::min(config_.window, now - startTime_);
      if (span <= 0.0) return config_.priorRate;
      if (inWindow == 0) return config_.priorRate;
      return static_cast<double>(inWindow) / span;
    }
    case EstimatorMode::kEwma: {
      if (s->ewmaInterval <= 0.0) {
        // Only one contact so far: fall back to the cumulative estimate.
        const double elapsed = now - startTime_;
        return elapsed > 0.0 ? static_cast<double>(s->totalCount) / elapsed
                             : config_.priorRate;
      }
      return 1.0 / s->ewmaInterval;
    }
  }
  return config_.priorRate;
}

double ContactRateEstimator::rate(NodeId i, NodeId j, sim::SimTime now) const {
  if (i == j) return 0.0;
  return rateOf(findPair(i, j), now);
}

double ContactRateEstimator::meetingProbability(NodeId i, NodeId j, sim::SimTime window,
                                                sim::SimTime now) const {
  return contactProbability(rate(i, j, now), window);
}

double ContactRateEstimator::nodeRateSum(NodeId i, sim::SimTime now) const {
  if (!sparse_) {
    double sum = 0.0;
    for (NodeId j = 0; j < nodeCount_; ++j)
      if (j != i) sum += rate(i, j, now);
    return sum;
  }
  DTNCACHE_CHECK(i < nodeCount_);
  // Observed peers in ascending order (matching the dense iteration on the
  // pairs that exist), then the closed-form prior for the never-met rest.
  // Note a *seen* pair can still evaluate to priorRate (e.g. an expired
  // sliding window) — that term is summed explicitly, same as dense.
  // Pre-created zero-count pairs (shard mode) count as never-met: folding
  // them into the closed-form term keeps the summation order — and thus the
  // FP result — identical to a lazily-built table.
  double sum = 0.0;
  std::size_t unseen = 0;
  for (const NodeNbr& nb : nodeNbrs_[i]) {
    if (pairs_[nb.idx].totalCount == 0) {
      ++unseen;
      continue;
    }
    sum += rateOf(nb.idx, now);
  }
  if (config_.priorRate > 0.0 && nodeCount_ >= 1)
    sum += config_.priorRate *
           static_cast<double>(nodeCount_ - 1 - (nodeNbrs_[i].size() - unseen));
  return sum;
}

std::size_t ContactRateEstimator::observedPairCount() const {
  // Both backends: pairs with at least one recorded contact. The sparse
  // table can hold zero-count state (shard-mode pre-creation), which does
  // not count as observed.
  std::size_t n = 0;
  for (const PairState& s : pairs_)
    if (s.totalCount > 0) ++n;
  return n;
}

RateMatrix ContactRateEstimator::snapshot(sim::SimTime now) const {
  RateMatrix m(nodeCount_, sparse_ ? PairBackend::kSparse : PairBackend::kDense,
               sparse_ ? config_.priorRate : 0.0);
  if (!sparse_) {
    for (NodeId i = 0; i < nodeCount_; ++i)
      for (NodeId j = i + 1; j < nodeCount_; ++j) m.setRate(i, j, rate(i, j, now));
    return m;
  }
  // Observed pairs only, in canonical (i, ascending j) order; never-met
  // pairs — including zero-count pre-created state — read as the matrix's
  // default rate (== priorRate).
  for (NodeId i = 0; i < nodeCount_; ++i)
    for (const NodeNbr& nb : nodeNbrs_[i])
      if (nb.id > i && pairs_[nb.idx].totalCount > 0)
        m.setRate(i, nb.id, rateOf(nb.idx, now));
  return m;
}

bool ContactRateEstimator::rateStable(const PairState& s, sim::SimTime now) const {
  if (s.totalCount == 0) return true;  // priorRate forever until a contact
  switch (config_.mode) {
    case EstimatorMode::kCumulative:
      return false;  // count / elapsed shrinks as `now` advances
    case EstimatorMode::kSlidingWindow:
      // Once the last contact has left the window the estimate is priorRate
      // at every later time; while anything is in the window the count (and
      // possibly the span) still depends on `now`.
      return s.lastContact < now - config_.window;
    case EstimatorMode::kEwma:
      // 1 / ewma is time-free; the single-contact fallback is cumulative.
      return s.ewmaInterval > 0.0;
  }
  return false;
}

void ContactRateEstimator::evaluateBatch(sim::SimTime now) {
  const std::size_t n = batchIdx_.size();
  batchVal_.resize(n);
  if (n == 0) return;
  const double prior = config_.priorRate;
  if (config_.mode == EstimatorMode::kSlidingWindow) {
    // Window membership walks the per-pair recent row — stays scalar.
    for (std::size_t k = 0; k < n; ++k) batchVal_[k] = rateOf(batchIdx_[k], now);
    return;
  }
  batchCount_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    batchCount_[k] = static_cast<double>(pairs_[batchIdx_[k]].totalCount);
  const double elapsed = now - startTime_;
  if (config_.mode == EstimatorMode::kCumulative) {
    // rateOf: totalCount == 0 or elapsed <= 0 -> prior, else count / elapsed.
    if (elapsed <= 0.0) {
      std::fill(batchVal_.begin(), batchVal_.end(), prior);
      return;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double c = batchCount_[k];
      batchVal_[k] = c == 0.0 ? prior : c / elapsed;
    }
    return;
  }
  // kEwma: 1 / ewma, with rateOf's single-contact cumulative fallback.
  batchEwma_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    batchEwma_[k] = pairs_[batchIdx_[k]].ewmaInterval;
  for (std::size_t k = 0; k < n; ++k) {
    const double c = batchCount_[k];
    const double e = batchEwma_[k];
    batchVal_[k] = c == 0.0        ? prior
                   : e > 0.0       ? 1.0 / e
                   : elapsed > 0.0 ? c / elapsed
                                   : prior;
  }
}

SnapshotStats ContactRateEstimator::snapshotInto(RateMatrix& out, sim::SimTime now,
                                                 std::vector<NodeId>* changedNodes,
                                                 bool force) {
  if (out.nodeCount() != nodeCount_ || out.isSparse() != sparse_ ||
      (sparse_ && out.defaultRate() != config_.priorRate)) {
    out = RateMatrix(nodeCount_, sparse_ ? PairBackend::kSparse : PairBackend::kDense,
                     sparse_ ? config_.priorRate : 0.0);
    snapshotPrimed_ = false;
  }
  SnapshotStats stats;
  if (!snapshotPrimed_) {
    // The whole triangle, computed arithmetically: both backends report the
    // same count even though the sparse pass only touches observed pairs
    // (never-met entries are trivially "re-evaluated" to the prior).
    stats.dirtyPairs = triangleCount();
  } else if (force) {
    // A forced full rewrite still reports the LOGICAL dirty count — what the
    // incremental pass would have re-evaluated — so the full-recompute
    // escape hatch stays counter-identical to the incremental engine (the
    // IncrementalMaintenance equivalence tests diff this).
    stats.dirtyPairs = dirtyKeys_.size();
    for (const std::uint64_t key : varyingKeys_)
      if (!dirtyBits_.test(indexOfKey(key))) ++stats.dirtyPairs;
  }

  changedRowBits_.clear();
  const auto updatePair = [&](NodeId i, NodeId j) {
    const double v = rate(i, j, now);
    if (v != out.rate(i, j)) {
      out.setRate(i, j, v);
      ++stats.changedPairs;
      changedRowBits_.set(i);
      changedRowBits_.set(j);
    }
  };

  if (force || !snapshotPrimed_) {
    // Full rewrite, in the canonical row-major order. Entries outside the
    // dirty/varying lists compare equal to their stored value, so stats and
    // changedNodes match what the incremental pass would have produced.
    // Sparse: only observed pairs can differ from the default the matrix
    // already reads for the rest, so the walk covers adjacency rows only.
    if (!sparse_) {
      for (NodeId i = 0; i < nodeCount_; ++i)
        for (NodeId j = i + 1; j < nodeCount_; ++j) updatePair(i, j);
    } else {
      // Zero-count pre-created pairs evaluate to the prior the matrix
      // already reads by default; skipping them avoids the probe without
      // changing values, stats, or changedNodes.
      for (NodeId i = 0; i < nodeCount_; ++i)
        for (const NodeNbr& nb : nodeNbrs_[i])
          if (nb.id > i && pairs_[nb.idx].totalCount > 0) updatePair(i, nb.id);
    }
  } else {
    // Data-oriented incremental pass. Gather (key, storage index) for the
    // dirty list then the non-dirty time-varying list — the same pair order
    // the scalar loop used — lift the state fields into contiguous columns,
    // evaluate the mode arithmetic over them, and compare-and-scatter the
    // results. The per-pair work in the middle loop is pure double math the
    // compiler can vectorize; the hash probe happens once per pair here
    // instead of inside every rate() call.
    batchKeys_.clear();
    batchIdx_.clear();
    for (const std::uint64_t key : dirtyKeys_) {
      batchKeys_.push_back(key);
      batchIdx_.push_back(indexOfKey(key));
    }
    for (const std::uint64_t key : varyingKeys_) {
      const std::uint32_t idx = indexOfKey(key);
      if (!dirtyBits_.test(idx)) {
        batchKeys_.push_back(key);
        batchIdx_.push_back(idx);
      }
    }
    stats.dirtyPairs = batchKeys_.size();
    evaluateBatch(now);
    for (std::size_t k = 0; k < batchKeys_.size(); ++k) {
      const NodeId i = core::pairHigh(batchKeys_[k]);
      const NodeId j = core::pairLow(batchKeys_[k]);
      const double v = batchVal_[k];
      if (v != out.rate(i, j)) {
        out.setRate(i, j, v);
        ++stats.changedPairs;
        changedRowBits_.set(i);
        changedRowBits_.set(j);
      }
    }
  }

  // Advance the bookkeeping: compact the time-varying list in place, then
  // fold in dirty pairs that are still time-dependent. Both loops reuse the
  // existing vectors — steady-state snapshots allocate nothing.
  std::size_t kept = 0;
  for (const std::uint64_t key : varyingKeys_) {
    const std::uint32_t idx = indexOfKey(key);
    if (rateStable(pairs_[idx], now))
      varyingBits_.reset(idx);
    else
      varyingKeys_[kept++] = key;
  }
  varyingKeys_.resize(kept);
  for (const std::uint64_t key : dirtyKeys_) {
    const std::uint32_t idx = indexOfKey(key);
    dirtyBits_.reset(idx);
    if (!rateStable(pairs_[idx], now) && varyingBits_.set(idx))
      varyingKeys_.push_back(key);
  }
  dirtyKeys_.clear();
  snapshotPrimed_ = true;

  if (changedNodes != nullptr) {
    changedNodes->clear();
    if (stats.changedPairs > 0)
      for (NodeId n = 0; n < nodeCount_; ++n)
        if (changedRowBits_.test(n)) changedNodes->push_back(n);
  }
  return stats;
}

void ContactRateEstimator::enterShardMode(std::size_t contexts,
                                          const std::vector<Contact>& contacts,
                                          std::size_t first, std::size_t end) {
  DTNCACHE_CHECK(!shardMode_);
  DTNCACHE_CHECK(contexts >= 1 && first <= end && end <= contacts.size());
  // Pre-create every pair the run can touch, in trace order — the same
  // first-sight order lazy creation would use, so the adjacency rows and
  // slot layout match a plain run on the delivered subset (zero-count
  // extras are skipped by every read path).
  if (sparse_)
    for (std::size_t c = first; c < end; ++c)
      findOrCreatePair(contacts[c].a, contacts[c].b);
  shardSinks_.resize(contexts);
  for (ShardSink& sink : shardSinks_) {
    sink.bits = core::DenseBitset(pairs_.size());
    sink.entries.clear();
  }
  shardMode_ = true;
}

void ContactRateEstimator::drainShardDirty() {
  bool any = false;
  for (const ShardSink& sink : shardSinks_)
    if (!sink.entries.empty()) {
      any = true;
      break;
    }
  if (!any) return;
  drainScratch_.clear();
  for (ShardSink& sink : shardSinks_) {
    drainScratch_.insert(drainScratch_.end(), sink.entries.begin(), sink.entries.end());
    for (const ShardSink::Entry& e : sink.entries) sink.bits.reset(e.idx);
    sink.entries.clear();
  }
  // One entry per recording event, and an event runs on exactly one
  // context, so keys never tie: sorting by (t, seq) is the total
  // single-threaded recording order.
  std::sort(drainScratch_.begin(), drainScratch_.end(),
            [](const ShardSink::Entry& a, const ShardSink::Entry& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  for (const ShardSink::Entry& e : drainScratch_)
    if (dirtyBits_.set(e.idx)) dirtyKeys_.push_back(e.key);
}

void ContactRateEstimator::exitShardMode() {
  DTNCACHE_CHECK(shardMode_);
  drainShardDirty();
  shardSinks_.clear();
  shardMode_ = false;
}

}  // namespace dtncache::trace
