#include "trace/rate_matrix.hpp"

#include <algorithm>

namespace dtncache::trace {

double& RateMatrix::slotOf(NodeId i, NodeId j) {
  const std::uint64_t key = core::packSymmetricPair(i, j);
  std::uint32_t slot = index_.find(key);
  if (slot == core::SlotIndex::kNoSlot) {
    slot = static_cast<std::uint32_t>(values_.size());
    values_.push_back(defaultRate_);
    index_.insert(key, slot);
    insertNeighbor(i, j, slot);
    insertNeighbor(j, i, slot);
  }
  return values_[slot];
}

void RateMatrix::insertNeighbor(NodeId i, NodeId j, std::uint32_t slot) {
  auto& row = neighbors_[i];
  const auto pos = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Neighbor& nb, NodeId id) { return nb.id < id; });
  row.insert(pos, Neighbor{j, slot});
}

RateMatrix RateMatrix::fitFromTrace(const ContactTrace& trace, PairBackend backend) {
  RateMatrix m(trace.nodeCount(), backend);
  const sim::SimTime d = trace.duration();
  if (d <= 0.0) return m;
  // Accumulate counts in one pass, then normalize. Per-pair counts are
  // order-free, so both backends produce identical values.
  if (!m.sparse_) {
    for (const auto& c : trace.contacts()) m.rates_[m.index(c.a, c.b)] += 1.0;
    for (auto& r : m.rates_) r /= d;
  } else {
    for (const auto& c : trace.contacts()) m.slotOf(c.a, c.b) += 1.0;
    for (auto& r : m.values_) r /= d;
  }
  return m;
}

RateMatrix RateMatrix::fromPairs(std::size_t n, std::span<const PairRate> pairs,
                                 PairBackend backend) {
  RateMatrix m(n, backend);
  for (const PairRate& p : pairs)
    DTNCACHE_CHECK_MSG(p.a < n && p.b < n && p.a != p.b && p.rate >= 0.0,
                       "RateMatrix::fromPairs: bad pair (" << p.a << ", " << p.b << ") with rate "
                                                           << p.rate << " on " << n << " nodes");
  if (!m.sparse_) {
    std::vector<bool> seen(m.rates_.size(), false);
    for (const PairRate& p : pairs) {
      const std::size_t k = m.index(p.a, p.b);
      DTNCACHE_CHECK_MSG(!seen[k], "RateMatrix::fromPairs: duplicate pair (" << p.a << ", "
                                                                            << p.b << ")");
      seen[k] = true;
      m.rates_[k] = p.rate;
    }
    return m;
  }
  DTNCACHE_CHECK_MSG(pairs.size() < core::SlotIndex::kNoSlot,
                     "RateMatrix::fromPairs: " << pairs.size() << " pairs overflow the slot index");

  std::vector<std::uint32_t> degree(n, 0);
  for (const PairRate& p : pairs) {
    ++degree[p.a];
    ++degree[p.b];
  }
  for (NodeId i = 0; i < n; ++i) m.neighbors_[i].reserve(degree[i]);
  m.values_.reserve(pairs.size());
  for (std::uint32_t slot = 0; slot < pairs.size(); ++slot) {
    const PairRate& p = pairs[slot];
    m.values_.push_back(p.rate);
    m.neighbors_[p.a].push_back(Neighbor{p.b, slot});
    m.neighbors_[p.b].push_back(Neighbor{p.a, slot});
  }
  const auto byId = [](const Neighbor& x, const Neighbor& y) { return x.id < y.id; };
  const auto sameId = [](const Neighbor& x, const Neighbor& y) { return x.id == y.id; };
  for (NodeId i = 0; i < n; ++i) {
    auto& row = m.neighbors_[i];
    std::sort(row.begin(), row.end(), byId);
    const auto twin = std::adjacent_find(row.begin(), row.end(), sameId);
    DTNCACHE_CHECK_MSG(twin == row.end(), "RateMatrix::fromPairs: duplicate pair ("
                                              << i << ", " << twin->id << ")");
  }

  // Distinct pairs now, so the pre-sized index never grows.
  m.index_ = core::SlotIndex(pairs.size());
  for (std::uint32_t slot = 0; slot < pairs.size(); ++slot)
    m.index_.insert(core::packSymmetricPair(pairs[slot].a, pairs[slot].b), slot);
  return m;
}

}  // namespace dtncache::trace
