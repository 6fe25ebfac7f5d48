#include "trace/contact.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "sim/assert.hpp"
#include "trace/generators.hpp"
#include "trace/mobility.hpp"

namespace dtncache::trace {
namespace {

ContactTrace makeSmallTrace() {
  std::vector<Contact> cs = {
      {10.0, 5.0, 1, 0},  // endpoints deliberately unordered
      {0.0, 2.0, 0, 2},
      {20.0, 1.0, 1, 2},
      {25.0, 3.0, 0, 1},
  };
  return ContactTrace(3, std::move(cs));
}

TEST(ContactTrace, NormalizesAndSorts) {
  const auto t = makeSmallTrace();
  ASSERT_EQ(t.contacts().size(), 4u);
  EXPECT_DOUBLE_EQ(t.contacts().front().start, 0.0);
  EXPECT_DOUBLE_EQ(t.contacts().back().start, 25.0);
  for (const auto& c : t.contacts()) EXPECT_LT(c.a, c.b);
}

TEST(ContactTrace, DurationIsLastContactEnd) {
  const auto t = makeSmallTrace();
  EXPECT_DOUBLE_EQ(t.duration(), 28.0);
}

TEST(ContactTrace, EmptyTrace) {
  ContactTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
}

TEST(ContactTrace, PairCounts) {
  const auto t = makeSmallTrace();
  EXPECT_EQ(t.pairContactCount(0, 1), 2u);
  EXPECT_EQ(t.pairContactCount(1, 0), 2u);  // symmetric
  EXPECT_EQ(t.pairContactCount(0, 2), 1u);
  EXPECT_EQ(t.pairContactCount(1, 2), 1u);
}

TEST(ContactTrace, PairRate) {
  const auto t = makeSmallTrace();
  EXPECT_DOUBLE_EQ(t.pairRate(0, 1), 2.0 / 28.0);
}

TEST(ContactTrace, StatsAggregates) {
  const auto s = makeSmallTrace().stats();
  EXPECT_EQ(s.nodeCount, 3u);
  EXPECT_EQ(s.contactCount, 4u);
  EXPECT_EQ(s.pairsThatMet, 3u);
  EXPECT_DOUBLE_EQ(s.meanContactDuration, (5.0 + 2.0 + 1.0 + 3.0) / 4.0);
}

/// stats() as a std::map walk: per-pair counts in (a, b) order, the rate
/// sum accumulated in that order.
TraceStats referenceStats(const ContactTrace& trace) {
  TraceStats s;
  s.nodeCount = trace.nodeCount();
  s.contactCount = trace.contacts().size();
  s.duration = trace.duration();
  std::map<std::pair<NodeId, NodeId>, std::size_t> perPair;
  double durSum = 0.0;
  for (const auto& c : trace.contacts()) {
    ++perPair[{c.a, c.b}];
    durSum += c.duration;
  }
  s.pairsThatMet = perPair.size();
  if (s.contactCount > 0) s.meanContactDuration = durSum / static_cast<double>(s.contactCount);
  if (s.duration > 0.0 && s.pairsThatMet > 0) {
    double rateSum = 0.0;
    for (const auto& [pair, count] : perPair) rateSum += static_cast<double>(count) / s.duration;
    s.meanPairwiseRate = rateSum / static_cast<double>(s.pairsThatMet);
    const auto totalPairs = static_cast<double>(s.nodeCount * (s.nodeCount - 1) / 2);
    s.meanContactsPerPairPerDay =
        static_cast<double>(s.contactCount) / totalPairs / sim::toDays(s.duration);
  }
  return s;
}

TEST(ContactTrace, StatsAreBitEqualToAnOrderedMapReference) {
  SyntheticTraceConfig mobility = mobilityConfig(3000, 4);
  mobility.duration = sim::days(2);
  for (const SyntheticTraceConfig& config : {infocomLikeConfig(2), mobility}) {
    const ContactTrace trace = generate(config).trace;
    const TraceStats got = trace.stats();
    const TraceStats want = referenceStats(trace);
    EXPECT_GT(got.pairsThatMet, 0u);
    EXPECT_EQ(got.nodeCount, want.nodeCount);
    EXPECT_EQ(got.contactCount, want.contactCount);
    EXPECT_EQ(got.pairsThatMet, want.pairsThatMet);
    // Bit-equal, not merely close: the sums run in the same order.
    EXPECT_EQ(got.duration, want.duration);
    EXPECT_EQ(got.meanContactDuration, want.meanContactDuration);
    EXPECT_EQ(got.meanPairwiseRate, want.meanPairwiseRate);
    EXPECT_EQ(got.meanContactsPerPairPerDay, want.meanContactsPerPairPerDay);
  }
}

TEST(ContactTrace, TruncatedKeepsEarlyContacts) {
  const auto t = makeSmallTrace().truncated(15.0);
  EXPECT_EQ(t.contacts().size(), 2u);
  EXPECT_EQ(t.nodeCount(), 3u);
}

TEST(ContactTrace, RejectsOutOfRangeEndpoint) {
  std::vector<Contact> cs = {{0.0, 1.0, 0, 5}};
  EXPECT_THROW(ContactTrace(3, std::move(cs)), InvariantViolation);
}

TEST(ContactTrace, RejectsSelfContact) {
  std::vector<Contact> cs = {{0.0, 1.0, 2, 2}};
  EXPECT_THROW(ContactTrace(3, std::move(cs)), InvariantViolation);
}

TEST(ContactTrace, CsvRoundTrip) {
  const auto t = makeSmallTrace();
  std::stringstream ss;
  t.writeCsv(ss);
  const auto back = ContactTrace::readCsv(ss);
  ASSERT_EQ(back.contacts().size(), t.contacts().size());
  for (std::size_t i = 0; i < t.contacts().size(); ++i) {
    EXPECT_DOUBLE_EQ(back.contacts()[i].start, t.contacts()[i].start);
    EXPECT_DOUBLE_EQ(back.contacts()[i].duration, t.contacts()[i].duration);
    EXPECT_EQ(back.contacts()[i].a, t.contacts()[i].a);
    EXPECT_EQ(back.contacts()[i].b, t.contacts()[i].b);
  }
}

TEST(ContactTrace, CsvMalformedLineThrows) {
  std::stringstream ss("start,duration,a,b\nnot,a,number,row\n");
  EXPECT_THROW(ContactTrace::readCsv(ss), InvariantViolation);
}

TEST(Contact, PeerOfAndInvolves) {
  Contact c{0.0, 1.0, 3, 7};
  EXPECT_TRUE(c.involves(3));
  EXPECT_TRUE(c.involves(7));
  EXPECT_FALSE(c.involves(5));
  EXPECT_EQ(c.peerOf(3), 7u);
  EXPECT_EQ(c.peerOf(7), 3u);
}

}  // namespace
}  // namespace dtncache::trace
