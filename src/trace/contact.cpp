#include "trace/contact.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/slot_index.hpp"
#include "sim/assert.hpp"

namespace dtncache::trace {

ContactTrace::ContactTrace(std::size_t nodeCount, std::vector<Contact> contacts)
    : nodeCount_(nodeCount), contacts_(std::move(contacts)) {
  for (auto& c : contacts_) {
    DTNCACHE_CHECK_MSG(c.a < nodeCount_ && c.b < nodeCount_,
                       "contact endpoint out of range: " << c.a << "," << c.b);
    DTNCACHE_CHECK_MSG(c.a != c.b, "self-contact at node " << c.a);
    DTNCACHE_CHECK(c.start >= 0.0 && c.duration >= 0.0);
    if (c.a > c.b) std::swap(c.a, c.b);
  }
  // Streamed generators hand over contacts already in start order; checking
  // first spares them stable_sort's n/2-element scratch buffer.
  const auto byStart = [](const Contact& x, const Contact& y) { return x.start < y.start; };
  if (!std::is_sorted(contacts_.begin(), contacts_.end(), byStart))
    std::stable_sort(contacts_.begin(), contacts_.end(), byStart);
}

sim::SimTime ContactTrace::duration() const {
  sim::SimTime end = 0.0;
  for (const auto& c : contacts_) end = std::max(end, c.end());
  return end;
}

TraceStats ContactTrace::stats() const {
  TraceStats s;
  s.nodeCount = nodeCount_;
  s.contactCount = contacts_.size();
  s.duration = duration();

  // Flat-keyed counting: one open-addressing probe per contact into a
  // slot index over flat key/count vectors. The rate sum below runs in
  // sorted-pair order (packed keys order like (a, b) tuples), so the
  // floating-point accumulation matches the old std::map traversal bit for
  // bit.
  core::SlotIndex slotOf(std::min(contacts_.size(), nodeCount_ * (nodeCount_ - 1) / 2));
  std::vector<std::pair<std::uint64_t, std::size_t>> perPair;  // (key, contacts)
  double durSum = 0.0;
  for (const auto& c : contacts_) {
    const std::uint64_t key = pairKey(c.a, c.b);
    std::uint32_t slot = slotOf.find(key);
    if (slot == core::SlotIndex::kNoSlot) {
      slot = static_cast<std::uint32_t>(perPair.size());
      slotOf.insert(key, slot);
      perPair.emplace_back(key, 0);
    }
    ++perPair[slot].second;
    durSum += c.duration;
  }
  s.pairsThatMet = perPair.size();
  if (!contacts_.empty()) s.meanContactDuration = durSum / static_cast<double>(contacts_.size());
  if (s.duration > 0.0 && s.pairsThatMet > 0) {
    std::sort(perPair.begin(), perPair.end());
    double rateSum = 0.0;
    for (const auto& [key, count] : perPair) rateSum += static_cast<double>(count) / s.duration;
    s.meanPairwiseRate = rateSum / static_cast<double>(s.pairsThatMet);
    const auto totalPairs = static_cast<double>(nodeCount_ * (nodeCount_ - 1) / 2);
    s.meanContactsPerPairPerDay =
        static_cast<double>(s.contactCount) / totalPairs / sim::toDays(s.duration);
  }
  return s;
}

std::size_t ContactTrace::pairContactCount(NodeId i, NodeId j) const {
  if (i > j) std::swap(i, j);
  std::size_t n = 0;
  for (const auto& c : contacts_)
    if (c.a == i && c.b == j) ++n;
  return n;
}

double ContactTrace::pairRate(NodeId i, NodeId j) const {
  const sim::SimTime d = duration();
  if (d <= 0.0) return 0.0;
  return static_cast<double>(pairContactCount(i, j)) / d;
}

ContactTrace ContactTrace::truncated(sim::SimTime cutoff) const {
  std::vector<Contact> kept;
  for (const auto& c : contacts_)
    if (c.start < cutoff) kept.push_back(c);
  return ContactTrace(nodeCount_, std::move(kept));
}

ContactTrace ContactTrace::loadCsv(const std::string& path) {
  std::ifstream in(path);
  DTNCACHE_CHECK_MSG(in.good(), "cannot open trace file " << path);
  return readCsv(in);
}

void ContactTrace::saveCsv(const std::string& path) const {
  std::ofstream out(path);
  DTNCACHE_CHECK_MSG(out.good(), "cannot write trace file " << path);
  writeCsv(out);
}

ContactTrace ContactTrace::readCsv(std::istream& in) {
  std::string line;
  std::vector<Contact> contacts;
  std::size_t maxNode = 0;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {  // skip header
      first = false;
      if (line.rfind("start", 0) == 0) continue;
    }
    std::istringstream ls(line);
    Contact c;
    char comma = 0;
    ls >> c.start >> comma >> c.duration >> comma >> c.a >> comma >> c.b;
    DTNCACHE_CHECK_MSG(!ls.fail(), "malformed trace line: " << line);
    contacts.push_back(c);
    maxNode = std::max<std::size_t>(maxNode, std::max(c.a, c.b));
  }
  return ContactTrace(maxNode + 1, std::move(contacts));
}

void ContactTrace::writeCsv(std::ostream& out) const {
  out << "start,duration,a,b\n";
  for (const auto& c : contacts_)
    out << c.start << ',' << c.duration << ',' << c.a << ',' << c.b << '\n';
}

}  // namespace dtncache::trace
