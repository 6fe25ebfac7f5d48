/// Memoization of synthetic-trace generation and external-trace adoption.
///
/// Both caches share one contract: a cached result must be byte-identical
/// to an unmemoized computation, and any change to the inputs (config
/// fields, or the content behind a reused trace address) must miss.

#include "trace/trace_cache.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "runner/experiment.hpp"
#include "trace/mobility.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::trace {
namespace {

void expectSameRates(const RateMatrix& a, const RateMatrix& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (NodeId i = 0; i < a.nodeCount(); ++i)
    for (NodeId j = i + 1; j < a.nodeCount(); ++j)
      ASSERT_EQ(a.rate(i, j), b.rate(i, j));
}

ContactTrace smallTrace(double offset = 0.0) {
  std::vector<Contact> contacts;
  for (int k = 0; k < 50; ++k) {
    Contact c;
    c.start = offset + 100.0 * k;
    c.duration = 30.0;
    c.a = static_cast<NodeId>(k % 6);
    c.b = static_cast<NodeId>((k + 1 + k % 3) % 6);
    if (c.a == c.b) c.b = (c.b + 1) % 6;
    contacts.push_back(c);
  }
  return ContactTrace(6, contacts);
}

TEST(ExternalTraceCache, AdoptionIsMemoizedAndByteIdentical) {
  clearExternalTraceCache();
  const ContactTrace t = smallTrace();

  const auto first = externalShared(t);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->trace.contacts().size(), t.contacts().size());
  expectSameRates(first->rates, RateMatrix::fitFromTrace(t));
  auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Same object again: a hit returning the same shared result.
  const auto second = externalShared(t);
  EXPECT_EQ(second.get(), first.get());
  stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ExternalTraceCache, MutatedContentAtTheSameAddressMisses) {
  // Re-assigning the trace object keeps its address but changes its
  // content — exactly the reload scenario the fingerprint guards against.
  clearExternalTraceCache();
  ContactTrace t = smallTrace();
  const auto first = externalShared(t);
  t = smallTrace(7.0);  // same address, shifted contact times
  const auto second = externalShared(t);
  EXPECT_NE(second.get(), first.get());
  expectSameRates(second->rates, RateMatrix::fitFromTrace(t));
  const auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ExternalTraceCache, DistinctTracesGetDistinctEntries) {
  clearExternalTraceCache();
  const ContactTrace a = smallTrace();
  const ContactTrace b = smallTrace(3.5);
  const auto ra = externalShared(a);
  const auto rb = externalShared(b);
  EXPECT_NE(ra.get(), rb.get());
  // Both stay cached; re-requests hit.
  EXPECT_EQ(externalShared(a).get(), ra.get());
  EXPECT_EQ(externalShared(b).get(), rb.get());
  const auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ExternalTraceCache, ClearResetsEntriesAndStats) {
  clearExternalTraceCache();
  const ContactTrace t = smallTrace();
  const auto first = externalShared(t);
  clearExternalTraceCache();
  auto stats = externalTraceCacheStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  // The evicted result stays alive through the caller's shared_ptr; a new
  // request refits rather than resurrecting it.
  const auto second = externalShared(t);
  EXPECT_NE(second.get(), first.get());
  expectSameRates(second->rates, first->rates);
}

// ---- generateShared -----------------------------------------------------------

SyntheticTraceConfig memoConfig(std::uint64_t seed) {
  return homogeneousConfig(12, 4.0, sim::days(2), seed);
}

TEST(TraceMemo, ConcurrentCallersShareOneGeneration) {
  clearTraceCache();
  const SyntheticTraceConfig config = infocomLikeConfig(5);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const SyntheticTrace>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = generateShared(config);
    });
  for (auto& th : threads) th.join();

  const auto stats = traceCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  ASSERT_NE(got[0], nullptr);
  for (const auto& trace : got) EXPECT_EQ(trace.get(), got[0].get());
  EXPECT_EQ(got[0]->trace.contacts().size(), generate(config).trace.contacts().size());
}

TEST(TraceMemo, FailedGenerationThrowsInEveryCallerAndLeavesNoEntry) {
  clearTraceCache();
  SyntheticTraceConfig bad = memoConfig(1);
  bad.nodeCount = 1;
  constexpr std::size_t kThreads = 4;
  std::vector<int> threw(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        (void)generateShared(bad);
      } catch (const InvariantViolation&) {
        threw[t] = 1;
      }
    });
  for (auto& th : threads) th.join();
  for (const int t : threw) EXPECT_EQ(t, 1);
  EXPECT_EQ(traceCacheStats().entries, 0u);

  // A later call generates again and fails again, rather than hanging on
  // or returning the failed result.
  const std::size_t missesBefore = traceCacheStats().misses;
  EXPECT_THROW((void)generateShared(bad), InvariantViolation);
  EXPECT_EQ(traceCacheStats().misses, missesBefore + 1);
  EXPECT_EQ(traceCacheStats().entries, 0u);
}

TEST(TraceMemo, HeldTracesStayAndOnlyTwoIdleAreKept) {
  clearTraceCache();
  const auto held = generateShared(memoConfig(1));
  for (std::uint64_t seed = 2; seed <= 4; ++seed)
    (void)generateShared(memoConfig(seed));  // idle as soon as the call returns

  // Three idle configs: the next call drops the oldest (2), keeps 3 and 4.
  EXPECT_EQ(generateShared(memoConfig(1)).get(), held.get());
  EXPECT_EQ(traceCacheStats().entries, 3u);
  (void)generateShared(memoConfig(3));
  (void)generateShared(memoConfig(4));
  EXPECT_EQ(traceCacheStats().misses, 4u);
  (void)generateShared(memoConfig(2));
  EXPECT_EQ(traceCacheStats().misses, 5u);

  // However many idle configs pass through, the held trace stays.
  for (std::uint64_t seed = 5; seed <= 11; ++seed) (void)generateShared(memoConfig(seed));
  EXPECT_EQ(generateShared(memoConfig(1)).get(), held.get());
  const auto stats = traceCacheStats();
  EXPECT_EQ(stats.misses, 12u);
  EXPECT_EQ(stats.entries, 3u);  // the held trace plus two idle ones
}

TEST(TraceMemo, BackToBackExperimentsHitWorldAndWarmup) {
  clearTraceCache();
  runner::ExperimentConfig config;
  config.trace = memoConfig(7);
  config.catalog.itemCount = 2;
  config.estimatorWarmup = sim::days(1);
  const auto first = runner::runExperiment(config);
  auto stats = traceCacheStats();
  EXPECT_EQ(stats.misses, 2u);  // world + warm-up
  EXPECT_EQ(stats.hits, 0u);
  const auto second = runner::runExperiment(config);
  stats = traceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(first.results.meanFreshFraction, second.results.meanFreshFraction);
}

// ---- contactsShared -----------------------------------------------------------

void expectSameContacts(const ContactTrace& a, const ContactTrace& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.contacts().size(), b.contacts().size());
  for (std::size_t i = 0; i < a.contacts().size(); ++i) {
    const Contact& x = a.contacts()[i];
    const Contact& y = b.contacts()[i];
    ASSERT_EQ(x.a, y.a);
    ASSERT_EQ(x.b, y.b);
    ASSERT_EQ(x.start, y.start);
    ASSERT_EQ(x.duration, y.duration);
  }
}

SyntheticTraceConfig smallMobility(RateModel model) {
  SyntheticTraceConfig config = mobilityConfig(400, 3);
  config.model = model;
  config.duration = sim::days(2);
  config.meanDegree = 10.0;
  return config;
}

TEST(TraceMemo, ContactsOnlyEntriesEqualTheFullTracesContacts) {
  for (const SyntheticTraceConfig& config :
       {infocomLikeConfig(5), smallMobility(RateModel::kMobilityCommunity),
        smallMobility(RateModel::kMobilityPowerLaw)}) {
    clearTraceCache();
    const auto contacts = contactsShared(config);
    const auto full = generateShared(config);
    expectSameContacts(contacts->trace, full->trace);
    EXPECT_GT(contacts->trace.contacts().size(), 0u);
    // Two entries, one per kind of request; repeats hit their own entry.
    EXPECT_NE(contacts.get(), full.get());
    EXPECT_EQ(contactsShared(config).get(), contacts.get());
    EXPECT_EQ(generateShared(config).get(), full.get());
    const auto stats = traceCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 2u);
  }
}

TEST(TraceMemo, MobilityContactsOnlyEntryHoldsNoRateMatrix) {
  clearTraceCache();
  const SyntheticTraceConfig config = smallMobility(RateModel::kMobilityCommunity);
  const auto contacts = contactsShared(config);
  EXPECT_EQ(contacts->rates.nodeCount(), 0u);
  EXPECT_EQ(contacts->rates.observedPairCount(), 0u);
  EXPECT_TRUE(contacts->community.empty());
  EXPECT_GT(generateShared(config)->rates.observedPairCount(), 0u);
}

}  // namespace
}  // namespace dtncache::trace
