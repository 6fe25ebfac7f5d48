#include "cache/coop_cache.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/hierarchical_scheme.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace dtncache::cache {
namespace {

/// Test scheme: the source pushes to any peer the substrate will accept.
class PushAlwaysScheme : public RefreshScheme {
 public:
  std::string name() const override { return "PushAlways"; }
  void onContact(CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override {
    for (data::ItemId item = 0; item < cache.catalog().size(); ++item) {
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
    }
  }
};

/// A 4-node rig: node 0 is the source of the single item; nodes 1 and 2 are
/// the caching nodes (they dominate the planning rates); node 3 is a plain
/// requester. The contact schedule is hand-written per test.
struct Rig {
  explicit Rig(std::vector<trace::Contact> contacts, bool warmStart = true,
               sim::SimTime tau = 100.0, double bandwidth = 1e9)
      : trace(4, std::move(contacts)),
        catalog(makeCatalog(tau)),
        estimator(4, estimatorConfig(), 0.0),
        network(simulator, trace, networkConfig(bandwidth)),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, planningRates(),
             cacheConfig(warmStart)) {}

  static data::Catalog makeCatalog(sim::SimTime tau) {
    data::ItemSpec s;
    s.id = 0;
    s.source = 0;
    s.sizeBytes = 1000;
    s.refreshPeriod = tau;
    s.lifetime = 2 * tau;
    return data::Catalog({s});
  }
  static trace::EstimatorConfig estimatorConfig() {
    trace::EstimatorConfig e;
    e.mode = trace::EstimatorMode::kCumulative;
    return e;
  }
  static net::NetworkConfig networkConfig(double bandwidth) {
    net::NetworkConfig n;
    n.bandwidthBytesPerSec = bandwidth;
    n.minContactBudgetBytes = 0;
    return n;
  }
  static trace::RateMatrix planningRates() {
    trace::RateMatrix m(4);
    m.setRate(1, 0, 0.10);
    m.setRate(1, 2, 0.10);
    m.setRate(1, 3, 0.10);
    m.setRate(2, 0, 0.05);
    m.setRate(2, 3, 0.05);
    return m;  // centrality order: 1, 2, then the rest
  }
  static CoopCacheConfig cacheConfig(bool warmStart) {
    CoopCacheConfig c;
    c.cachingNodesPerItem = 2;
    c.warmStart = warmStart;
    c.sampleInterval = 50.0;
    return c;
  }

  void start(RefreshScheme& scheme, sim::SimTime horizon) {
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, horizon);
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, horizon);
    this->horizon = horizon;
  }

  void run() { simulator.runUntil(horizon); }

  sim::Simulator simulator;
  trace::ContactTrace trace;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  CooperativeCache coop;
  std::unique_ptr<data::SourceProcess> sources;
  sim::SimTime horizon = 0.0;
};

TEST(CoopCache, CachingNodesAreCentralNonSourceNodes) {
  Rig rig({{1.0, 1.0, 0, 1}});
  const auto& set = rig.coop.cachingNodesOf(0);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_TRUE(rig.coop.isCachingNode(1, 0));
  EXPECT_TRUE(rig.coop.isCachingNode(2, 0));
  EXPECT_FALSE(rig.coop.isCachingNode(0, 0));  // the source never "caches"
  EXPECT_FALSE(rig.coop.isCachingNode(3, 0));
}

TEST(CoopCache, WarmStartPopulatesCaches) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 10.0);
  EXPECT_NE(rig.coop.storeOf(1).find(0), nullptr);
  EXPECT_NE(rig.coop.storeOf(2).find(0), nullptr);
  EXPECT_EQ(rig.coop.storeOf(3).find(0), nullptr);
  EXPECT_EQ(rig.collector.totalCopies(), 2u);
}

TEST(CoopCache, HeldVersionSemantics) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 350.0);
  rig.run();
  // The source always holds the live version (3 bumps by t=350).
  EXPECT_EQ(rig.coop.heldVersion(0, 0, 350.0), data::Version{3});
  // Member 1 still stores the warm-start version 0, but that copy expired
  // at t=200 (lifetime 2*tau): heldVersion reports only valid copies, so
  // the member can no longer serve it even though the bytes are present.
  EXPECT_NE(rig.coop.storeOf(1).find(0), nullptr);
  EXPECT_FALSE(rig.coop.heldVersion(1, 0, 350.0).has_value());
  // Before expiry the same copy was servable.
  EXPECT_EQ(rig.coop.heldVersion(1, 0, 150.0), data::Version{0});
  // Non-holders hold nothing.
  EXPECT_FALSE(rig.coop.heldVersion(3, 0, 350.0).has_value());
}

TEST(CoopCache, PushVersionUpgradesMemberOnContact) {
  // Source meets member 1 at t=150, after the version-1 bump at t=100.
  Rig rig({{150.0, 10.0, 0, 1}});
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_EQ(rig.coop.storeOf(1).find(0)->version, 1u);
  EXPECT_EQ(rig.coop.storeOf(2).find(0)->version, 0u);  // never met the source
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, PushToNonMemberIsRefused) {
  Rig rig({{150.0, 10.0, 0, 3}});  // node 3 is not a caching node
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_EQ(rig.coop.storeOf(3).find(0), nullptr);
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, PushSameVersionIsSkippedWithoutBytes) {
  Rig rig({{50.0, 10.0, 0, 1}});  // before any bump: both hold version 0
  PushAlwaysScheme scheme;
  rig.start(scheme, 90.0);
  rig.run();
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(CoopCache, HandshakeAccountedPerContact) {
  Rig rig({{1.0, 1.0, 0, 1}, {2.0, 1.0, 2, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 10.0);
  rig.run();
  // One control message per direction per contact, attributed to the sender.
  EXPECT_EQ(rig.network.transfers().of(net::Traffic::kControl).messages, 4u);
  const auto& perNode = rig.network.transfers().perNodeBytes();
  ASSERT_EQ(perNode.size(), 4u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_GT(perNode[n], 0u);
}

TEST(CoopCache, TinyContactBudgetBlocksDataButNotProgress) {
  // 1 byte/s for 1 s cannot even carry the handshake.
  Rig rig({{150.0, 1.0, 0, 1}}, true, 100.0, /*bandwidth=*/1.0);
  PushAlwaysScheme scheme;
  rig.start(scheme, 200.0);
  rig.run();
  EXPECT_EQ(rig.coop.storeOf(1).find(0)->version, 0u);
  EXPECT_EQ(rig.network.transfers().total().bytes, 0u);
}

TEST(CoopCache, LocalQueryHitAnswersInstantly) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 1;  // a caching node
  q.item = 0;
  q.issueTime = 50.0;
  q.deadline = 150.0;
  rig.simulator.scheduleAt(50.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.issued, 1u);
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.localHits, 1u);
  EXPECT_EQ(r.queries.answeredFresh, 1u);
  EXPECT_DOUBLE_EQ(r.queries.delay.mean(), 0.0);
}

TEST(CoopCache, SourceAnswersItsOwnQueriesLocally) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 0;
  q.item = 0;
  q.issueTime = 50.0;
  q.deadline = 150.0;
  rig.simulator.scheduleAt(50.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.localHits, 1u);
}

TEST(CoopCache, RemoteQueryAnsweredViaContact) {
  // Requester 3 queries at t=10; meets caching node 1 at t=30. The query
  // transfers to node 1 which generates a reply delivered in the same
  // contact's reverse pass.
  Rig rig({{30.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 10.0;
  q.deadline = 200.0;
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.answeredValid, 1u);
  EXPECT_EQ(r.queries.localHits, 0u);
  EXPECT_DOUBLE_EQ(r.queries.delay.mean(), 20.0);
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kReply).bytes, 0u);
}

TEST(CoopCache, StaleValidAnswerCountsValidNotFresh) {
  // Version bumps at t=100; member 1 still holds version 0 (valid until
  // t=200). A query answered at t=150 gets valid-but-stale data.
  Rig rig({{150.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 140.0;
  q.deadline = 190.0;
  rig.simulator.scheduleAt(140.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 1u);
  EXPECT_EQ(r.queries.answeredValid, 1u);
  EXPECT_EQ(r.queries.answeredFresh, 0u);
}

TEST(CoopCache, ExpiredCopyCannotAnswer) {
  // Member 1 holds version 0, which expires at t=200. Contact at t=250.
  Rig rig({{250.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 240.0;
  q.deadline = 300.0;
  rig.simulator.scheduleAt(240.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 0u);
}

TEST(CoopCache, LateReplyIsNotCounted) {
  // Query deadline t=25, but the only contact is at t=30.
  Rig rig({{30.0, 60.0, 1, 3}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  data::Query q;
  q.id = 1;
  q.requester = 3;
  q.item = 0;
  q.issueTime = 10.0;
  q.deadline = 25.0;
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime) { rig.coop.issueQuery(q); });
  rig.run();
  const auto r = rig.collector.finalize(400.0, rig.network.transfers());
  EXPECT_EQ(r.queries.answered, 0u);
}

TEST(CoopCache, ColdStartPlacementDeliversCopies) {
  // warmStart=false: the source must ship copies to members 1 and 2.
  // Source meets 1 directly; 1 later meets 2 (relay of the unicast copy
  // addressed to 2 requires 1 to be a better carrier — estimator sees the
  // 1↔2 contact history from these contacts themselves).
  std::vector<trace::Contact> contacts;
  contacts.push_back({5.0, 10.0, 0, 1});
  for (int i = 0; i < 5; ++i)
    contacts.push_back({20.0 + 10.0 * i, 5.0, 1, 2});
  contacts.push_back({80.0, 10.0, 0, 1});
  contacts.push_back({90.0, 10.0, 1, 2});  // final leg for the relayed copy
  Rig rig(std::move(contacts), /*warmStart=*/false);
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 99.0);
  rig.run();
  EXPECT_NE(rig.coop.storeOf(1).find(0), nullptr);
  EXPECT_NE(rig.coop.storeOf(2).find(0), nullptr);
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kPlacement).bytes, 0u);
}

TEST(CoopCache, PullMessageReachesSourceAndDataReturns) {
  // Member 1 injects a pull at t=10; meets source at t=20 (pull answered);
  // data copy handed back in the same contact.
  Rig rig({{20.0, 60.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  rig.simulator.scheduleAt(10.0, [&](sim::SimTime t) {
    net::Message m;
    m.kind = net::MessageKind::kPull;
    m.item = 0;
    m.dst = 0;
    m.origin = 1;
    m.createdAt = t;
    m.deadline = t + 300.0;
    m.copiesLeft = 2;
    rig.coop.injectMessage(1, m, t);
  });
  // Let a version bump happen first so the pull returns something newer.
  rig.simulator.runUntil(400.0);
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kPull).messages, 0u);
  // The pull response rides as a kDataCopy with refresh category.
  EXPECT_GT(rig.network.transfers().of(net::Traffic::kRefresh).bytes, 0u);
  EXPECT_EQ(rig.coop.storeOf(1).find(0)->version, 0u);  // t=20 < first bump
}

TEST(CoopCache, ValidFractionScansStores) {
  Rig rig({{1.0, 1.0, 0, 1}});
  baselines::NoRefreshScheme scheme;
  rig.start(scheme, 400.0);
  EXPECT_DOUBLE_EQ(rig.coop.validFraction(50.0), 1.0);    // both copies valid
  EXPECT_DOUBLE_EQ(rig.coop.validFraction(250.0), 0.0);   // both expired
}

TEST(CoopCache, RequiresSchemeBeforeStart) {
  Rig rig({{1.0, 1.0, 0, 1}});
  data::SourceProcess sources(rig.simulator, rig.catalog, 10.0);
  EXPECT_THROW(rig.coop.start(sources, nullptr, 10.0), InvariantViolation);
}

TEST(CoopCache, CachingSetSizeMustLeaveRoomForSource) {
  std::vector<trace::Contact> contacts{{1.0, 1.0, 0, 1}};
  trace::ContactTrace trace(4, std::move(contacts));
  sim::Simulator simulator;
  net::Network network(simulator, trace);
  data::Catalog catalog = Rig::makeCatalog(100.0);
  trace::ContactRateEstimator estimator(4, Rig::estimatorConfig(), 0.0);
  metrics::MetricsCollector collector(catalog, 0.0);
  CoopCacheConfig cfg;
  cfg.cachingNodesPerItem = 4;  // == node count: impossible
  EXPECT_THROW(CooperativeCache(simulator, network, catalog, estimator, collector,
                                Rig::planningRates(), cfg),
               InvariantViolation);
}

// ---- Inert contacts ---------------------------------------------------------

/// Counts onContact calls; shardable or not as asked.
class CountingScheme : public RefreshScheme {
 public:
  explicit CountingScheme(bool shardable) : shardable_(shardable) {}
  std::string name() const override { return "Counting"; }
  void onContact(CooperativeCache&, NodeId, NodeId, sim::SimTime,
                 net::ContactChannel&) override {
    ++calls;
  }
  bool shardable() const override { return shardable_; }
  int calls = 0;

 private:
  bool shardable_;
};

TEST(CoopCache, InertContactSkipsShardableSchemeOnly) {
  // Cold start: only the source (node 0) holds anything, so 2-3 is inert
  // and 0-1 is not.
  for (const bool shardable : {true, false}) {
    Rig rig({{10.0, 5.0, 2, 3}, {20.0, 5.0, 0, 1}}, /*warmStart=*/false);
    CountingScheme scheme(shardable);
    rig.start(scheme, 30.0);
    rig.run();
    EXPECT_EQ(scheme.calls, shardable ? 1 : 2) << "shardable=" << shardable;
    EXPECT_EQ(rig.network.transfers().of(net::Traffic::kControl).messages, 4u);
  }
}

/// What a cold-start rig has done so far, for before/after comparisons.
struct RunOutcome {
  std::map<std::string, std::uint64_t> counters;
  std::size_t events = 0;
  net::TrafficCounters control;
  std::uint64_t otherBytes = 0;  ///< every category but control
  std::vector<std::size_t> storeSizes;
  std::vector<std::size_t> bufferSizes;
  double rate23 = 0.0;  ///< estimator λ(2, 3)
};

/// A cold-start rig with a tracer and registry attached to the cache (and
/// to the scheme, when it takes them). Nodes 1-3 hold nothing.
struct ObservedRig {
  ObservedRig(std::vector<trace::Contact> contacts, RefreshScheme& scheme)
      : rig(std::move(contacts), /*warmStart=*/false) {
    rig.coop.setObservability(&tracer, &registry);
    if (auto* h = dynamic_cast<core::HierarchicalRefreshScheme*>(&scheme))
      h->setObservability(&tracer, &registry);
    rig.start(scheme, 60.0);
  }

  RunOutcome observe(sim::SimTime t) const {
    RunOutcome out;
    for (const auto& [name, value] : registry.counterSnapshot()) out.counters[name] = value;
    // Allocation-hook builds only: the estimator's first sight of a pair
    // allocates, which this diagnostic counts — not protocol state.
    out.counters.erase("cache.hot_path.allocs");
    out.events = tracer.eventCount();
    out.control = rig.network.transfers().of(net::Traffic::kControl);
    out.otherBytes = rig.network.transfers().total().bytes - out.control.bytes;
    for (NodeId n = 0; n < 4; ++n) {
      out.storeSizes.push_back(rig.coop.storeOf(n).size());
      out.bufferSizes.push_back(rig.coop.bufferOf(n).size());
    }
    out.rate23 = rig.estimator.rate(2, 3, t);
    return out;
  }

  obs::Tracer tracer{"inert"};
  obs::Registry registry;
  Rig rig;
};

/// Every shardable scheme the library ships, plus this file's PushAlways.
std::vector<std::pair<std::string, std::function<std::unique_ptr<RefreshScheme>()>>>
shardableSchemes() {
  return {
      {"NoRefresh", [] { return std::make_unique<baselines::NoRefreshScheme>(); }},
      {"SourceDirect", [] { return std::make_unique<baselines::SourceDirectScheme>(); }},
      {"Epidemic", [] { return std::make_unique<baselines::EpidemicScheme>(); }},
      {"Flooding", [] { return std::make_unique<baselines::FloodingScheme>(); }},
      {"Pull", [] { return std::make_unique<baselines::PullScheme>(); }},
      {"Hierarchical",
       [] { return std::make_unique<core::HierarchicalRefreshScheme>(core::HierarchicalConfig{}); }},
      {"PushAlways", [] { return std::make_unique<PushAlwaysScheme>(); }},
  };
}

TEST(CoopCache, InertContactChangesOnlyEstimatorAndHandshake) {
  // For every shardable scheme, a contact between two nodes that hold
  // nothing records the meeting in the estimator and pays the handshake,
  // and does nothing else: no other counter, byte, trace event, cached
  // copy or buffered message.
  for (const auto& [name, make] : shardableSchemes()) {
    const auto withScheme = make();
    const auto withoutScheme = make();
    ASSERT_TRUE(withScheme->shardable()) << name;
    ObservedRig withRig({{10.0, 5.0, 2, 3}}, *withScheme);
    ObservedRig withoutRig({}, *withoutScheme);
    withRig.rig.run();
    withoutRig.rig.run();
    const RunOutcome with = withRig.observe(60.0);
    const RunOutcome without = withoutRig.observe(60.0);

    auto expected = without.counters;
    ++expected["shard.boring_contacts"];
    EXPECT_EQ(with.counters, expected) << name;
    EXPECT_EQ(with.events, without.events) << name;
    EXPECT_EQ(with.control.messages, without.control.messages + 2) << name;
    EXPECT_GT(with.control.bytes, without.control.bytes) << name;
    EXPECT_EQ(with.otherBytes, without.otherBytes) << name;
    EXPECT_EQ(with.storeSizes, without.storeSizes) << name;
    EXPECT_EQ(with.bufferSizes, without.bufferSizes) << name;
    EXPECT_GT(with.rate23, 0.0) << name;
    EXPECT_EQ(without.rate23, 0.0) << name;
  }
}

TEST(CoopCache, ShardableOnContactIsNoOpForInertPair) {
  // The premise of the fast path, checked on the schemes themselves: called
  // directly for an inert pair, a shardable scheme's onContact moves no
  // byte and changes nothing observable.
  for (const auto& [name, make] : shardableSchemes()) {
    const auto scheme = make();
    ObservedRig observed({}, *scheme);
    observed.rig.simulator.runUntil(10.0);
    ASSERT_FALSE(observed.rig.coop.nodeProtocolActive(2, 10.0)) << name;
    ASSERT_FALSE(observed.rig.coop.nodeProtocolActive(3, 10.0)) << name;
    const RunOutcome before = observed.observe(10.0);
    net::TransferLog log(4);
    net::ContactChannel channel(1u << 20, log, 2, 3);
    scheme->onContact(observed.rig.coop, 2, 3, 10.0, channel);
    const RunOutcome after = observed.observe(10.0);
    EXPECT_EQ(log.total().messages, 0u) << name;
    EXPECT_EQ(after.counters, before.counters) << name;
    EXPECT_EQ(after.events, before.events) << name;
    EXPECT_EQ(after.storeSizes, before.storeSizes) << name;
    EXPECT_EQ(after.bufferSizes, before.bufferSizes) << name;
  }
}

TEST(CoopCache, InvalidationStillGossipsOnInertContacts) {
  // Node 3 hears version 1 from the source at t=150 but stores and buffers
  // nothing; member 2 holds nothing either (cold start). Their t=160
  // contact is inert, yet Invalidation must merge the version vectors —
  // it is not shardable, so the fast path must not skip it.
  for (const bool meet : {true, false}) {
    std::vector<trace::Contact> contacts{{150.0, 5.0, 0, 3}};
    if (meet) contacts.push_back({160.0, 5.0, 2, 3});
    Rig rig(std::move(contacts), /*warmStart=*/false);
    baselines::InvalidationScheme scheme;
    rig.start(scheme, 170.0);
    bool inert = false;
    rig.simulator.scheduleAt(155.0, [&](sim::SimTime t) {
      inert = !rig.coop.nodeProtocolActive(2, t) && !rig.coop.nodeProtocolActive(3, t);
    });
    rig.run();
    EXPECT_TRUE(inert);
    EXPECT_EQ(scheme.knownVersion(3, 0), 1u);
    EXPECT_EQ(scheme.knownVersion(2, 0), meet ? 1u : 0u);
    EXPECT_EQ(scheme.pullsIssued(), meet ? 1u : 0u);  // member 2 now asks the source
  }
}

}  // namespace
}  // namespace dtncache::cache
