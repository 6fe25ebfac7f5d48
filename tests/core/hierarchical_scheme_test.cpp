#include "core/hierarchical_scheme.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "cache/centrality.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace dtncache::core {
namespace {

/// A full stack over a generated homogeneous trace, hierarchical scheme.
struct SchemeRig {
  explicit SchemeRig(HierarchicalConfig schemeCfg, std::uint64_t seed = 1,
                     double contactsPerPairPerDay = 6.0,
                     sim::SimTime duration = sim::days(10))
      : world(trace::generate(
            trace::homogeneousConfig(12, contactsPerPairPerDay, duration, seed))),
        catalog(makeCatalog()),
        estimator(12, estimatorConfig(), 0.0),
        network(simulator, world.trace),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, world.rates, cacheConfig()),
        scheme(schemeCfg, &world.rates),
        horizon(duration) {}

  static data::Catalog makeCatalog() {
    data::CatalogConfig cfg;
    cfg.itemCount = 3;
    cfg.nodeCount = 12;
    cfg.refreshPeriod = sim::hours(12);
    return data::makeUniformCatalog(cfg);
  }
  static trace::EstimatorConfig estimatorConfig() {
    trace::EstimatorConfig e;
    e.mode = trace::EstimatorMode::kCumulative;
    return e;
  }
  static cache::CoopCacheConfig cacheConfig() {
    cache::CoopCacheConfig c;
    c.cachingNodesPerItem = 5;
    return c;
  }

  void run() {
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, horizon);
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, horizon);
    simulator.runUntil(horizon);
  }

  trace::SyntheticTrace world;
  sim::Simulator simulator;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  cache::CooperativeCache coop;
  HierarchicalRefreshScheme scheme;
  std::unique_ptr<data::SourceProcess> sources;
  sim::SimTime horizon;
};

HierarchicalConfig oracleConfig() {
  HierarchicalConfig c;
  c.useOracleRates = true;
  return c;
}

TEST(HierarchicalScheme, BuildsOneHierarchyPerItem) {
  SchemeRig rig(oracleConfig());
  rig.run();
  for (data::ItemId item = 0; item < rig.catalog.size(); ++item) {
    const auto& h = rig.scheme.hierarchyOf(item);
    EXPECT_EQ(h.root(), rig.coop.sourceOf(item));
    EXPECT_EQ(h.memberCount(), 1 + rig.coop.cachingNodesOf(item).size());
    h.checkInvariants();
    for (NodeId n : rig.coop.cachingNodesOf(item)) EXPECT_TRUE(h.isMember(n));
  }
}

TEST(HierarchicalScheme, RefreshesImproveFreshnessOverNoRefresh) {
  SchemeRig rig(oracleConfig());
  rig.run();
  const auto r = rig.collector.finalize(rig.horizon, rig.network.transfers());
  // 12 nodes at 6 contacts/pair/day with τ=12 h is plenty of connectivity.
  EXPECT_GT(r.meanFreshFraction, 0.5);
  EXPECT_GT(r.refreshPushes, 0u);
  EXPECT_GT(r.transfers.of(net::Traffic::kRefresh).bytes, 0u);
}

TEST(HierarchicalScheme, OnlyResponsibleEdgesPushDirectly) {
  // With relays disabled, every refresh byte moves along a tree or helper
  // edge; verify by re-running the decision for every upgrade seen.
  HierarchicalConfig cfg = oracleConfig();
  cfg.relayAssisted = false;
  cfg.maintenance = MaintenanceMode::kStatic;  // keep the plan frozen
  SchemeRig rig(cfg);
  rig.run();
  const auto r = rig.collector.finalize(rig.horizon, rig.network.transfers());
  EXPECT_GT(r.refreshPushes, 0u);
  // Each direct push transfers exactly one item payload + header.
  const auto& refresh = r.transfers.of(net::Traffic::kRefresh);
  const std::uint64_t itemBytes =
      rig.catalog.spec(0).sizeBytes + net::kHeaderBytes;
  EXPECT_EQ(refresh.bytes, refresh.messages * itemBytes);
}

TEST(HierarchicalScheme, RelayAssistIncreasesFreshnessOnSparseTraces) {
  HierarchicalConfig withRelays = oracleConfig();
  HierarchicalConfig without = oracleConfig();
  without.relayAssisted = false;
  // Sparse enough that direct tree edges are slow.
  SchemeRig sparse1(withRelays, 3, /*contactsPerPairPerDay=*/0.8, sim::days(20));
  sparse1.run();
  SchemeRig sparse2(without, 3, 0.8, sim::days(20));
  sparse2.run();
  const auto with = sparse1.collector.finalize(sparse1.horizon, sparse1.network.transfers());
  const auto sans = sparse2.collector.finalize(sparse2.horizon, sparse2.network.transfers());
  EXPECT_GT(with.meanFreshFraction, sans.meanFreshFraction);
  EXPECT_GT(sparse1.scheme.relayInjections(), 0u);
  EXPECT_EQ(sparse2.scheme.relayInjections(), 0u);
}

TEST(HierarchicalScheme, AnalyticalPredictionTracksAchievedRatio) {
  // The F5 core claim: without relays, the hypoexponential chain model
  // predicts the measured P(refresh within τ) closely.
  HierarchicalConfig cfg = oracleConfig();
  cfg.relayAssisted = false;
  cfg.replication.enabled = false;
  cfg.maintenance = MaintenanceMode::kStatic;
  SchemeRig rig(cfg, 7, 6.0, sim::days(30));
  rig.run();
  const auto r = rig.collector.finalize(rig.horizon, rig.network.transfers());

  double predicted = 0.0;
  std::size_t n = 0;
  for (data::ItemId item = 0; item < rig.catalog.size(); ++item) {
    const auto& plan = rig.scheme.planOf(item);
    for (NodeId node : rig.scheme.hierarchyOf(item).membersBelowRoot()) {
      predicted += plan.predictedProbability(node);
      ++n;
    }
  }
  predicted /= static_cast<double>(n);
  EXPECT_NEAR(r.refreshWithinPeriodRatio, predicted, 0.08);
}

TEST(HierarchicalScheme, ReplicationLiftsAchievedProbability) {
  HierarchicalConfig off = oracleConfig();
  off.relayAssisted = false;
  off.replication.enabled = false;
  HierarchicalConfig on = off;
  on.replication.enabled = true;
  on.replication.theta = 0.95;
  SchemeRig rigOff(off, 11, 1.5, sim::days(20));
  rigOff.run();
  SchemeRig rigOn(on, 11, 1.5, sim::days(20));
  rigOn.run();
  const auto roff = rigOff.collector.finalize(rigOff.horizon, rigOff.network.transfers());
  const auto ron = rigOn.collector.finalize(rigOn.horizon, rigOn.network.transfers());
  EXPECT_GT(ron.refreshWithinPeriodRatio, roff.refreshWithinPeriodRatio);
}

TEST(HierarchicalScheme, MaintenanceRunsOnSchedule) {
  HierarchicalConfig cfg = oracleConfig();
  cfg.maintenance = MaintenanceMode::kRebuild;
  cfg.maintenancePeriod = sim::days(1);
  SchemeRig rig(cfg);
  rig.run();
  EXPECT_EQ(rig.scheme.maintenanceRuns(), 10u);  // days 1..10
}

TEST(HierarchicalScheme, StaticModeNeverMaintains) {
  HierarchicalConfig cfg = oracleConfig();
  cfg.maintenance = MaintenanceMode::kStatic;
  SchemeRig rig(cfg);
  rig.run();
  EXPECT_EQ(rig.scheme.maintenanceRuns(), 0u);
}

TEST(HierarchicalScheme, LocalRepairConvergesTowardBetterParents) {
  // Plan from the (initially empty) online estimator: the first tree is
  // arbitrary. As estimates accumulate, local repair must reparent nodes.
  HierarchicalConfig cfg;  // estimator-driven
  cfg.maintenance = MaintenanceMode::kLocalRepair;
  cfg.maintenancePeriod = sim::days(1);
  SchemeRig rig(cfg, 5);
  rig.run();
  EXPECT_GT(rig.scheme.maintenanceRuns(), 0u);
  EXPECT_GT(rig.scheme.reparentCount(), 0u);
  for (data::ItemId item = 0; item < rig.catalog.size(); ++item)
    rig.scheme.hierarchyOf(item).checkInvariants();
}

TEST(HierarchicalScheme, OracleConfigRequiresMatrix) {
  HierarchicalConfig cfg;
  cfg.useOracleRates = true;
  EXPECT_THROW(HierarchicalRefreshScheme(cfg, nullptr), InvariantViolation);
}

TEST(HierarchicalScheme, ChurnRepairRemovesAndReattachesMembers) {
  HierarchicalConfig cfg = oracleConfig();
  cfg.maintenance = MaintenanceMode::kStatic;
  SchemeRig rig(cfg);
  rig.run();  // onStart builds the hierarchies

  const data::ItemId item = 0;
  const auto members = rig.coop.cachingNodesOf(item);
  const NodeId victim = members.front();
  const auto& h = rig.scheme.hierarchyOf(item);
  ASSERT_TRUE(h.isMember(victim));
  const std::size_t before = h.memberCount();

  rig.scheme.onNodeStateChanged(rig.coop, victim, /*up=*/false, rig.horizon);
  EXPECT_FALSE(h.isMember(victim));
  EXPECT_EQ(h.memberCount(), before - 1);
  h.checkInvariants();
  // The departed member keeps no responsibility and receives none.
  for (NodeId n : h.membersBelowRoot()) EXPECT_NE(h.parentOf(n), victim);

  rig.scheme.onNodeStateChanged(rig.coop, victim, /*up=*/true, rig.horizon);
  EXPECT_TRUE(h.isMember(victim));
  EXPECT_EQ(h.memberCount(), before);
  EXPECT_NE(h.parentOf(victim), kNoNode);
  h.checkInvariants();
  // One repair per flip per item whose caching set contains the victim.
  std::size_t memberships = 0;
  for (data::ItemId i = 0; i < rig.catalog.size(); ++i)
    if (rig.coop.isCachingNode(victim, i)) ++memberships;
  EXPECT_EQ(rig.scheme.churnRepairs(), 2 * memberships);
}

TEST(HierarchicalScheme, ChurnFlipForNonMemberIsNoop) {
  HierarchicalConfig cfg = oracleConfig();
  SchemeRig rig(cfg);
  rig.run();
  // A node that caches nothing (e.g. an item's source for that item) may
  // still flip; the scheme must not touch hierarchies it is not in.
  NodeId outsider = kNoNode;
  for (NodeId n = 0; n < 12; ++n) {
    bool member = false;
    for (data::ItemId item = 0; item < rig.catalog.size(); ++item)
      member = member || rig.coop.isCachingNode(n, item);
    if (!member) {
      outsider = n;
      break;
    }
  }
  ASSERT_NE(outsider, kNoNode);
  rig.scheme.onNodeStateChanged(rig.coop, outsider, false, rig.horizon);
  EXPECT_EQ(rig.scheme.churnRepairs(), 0u);
}

TEST(HierarchicalScheme, RateChangesOutsideEveryDependencyRowSkipEveryItem) {
  // Ten nodes, no trace contacts: the test feeds the EWMA estimator itself.
  // Uniform planning rates make the caching sets {0, 2} (item 0, source 1)
  // and {0, 1} (item 1, source 2), so nodes 3..9 are outside every item's
  // dependency rows.
  constexpr std::size_t kNodes = 10;
  const sim::SimTime window = sim::hours(1);
  trace::RateMatrix planning(kNodes);
  for (NodeId i = 0; i < kNodes; ++i)
    for (NodeId j = i + 1; j < kNodes; ++j) planning.setRate(i, j, 0.1 / 3600.0);
  data::CatalogConfig catCfg;
  catCfg.itemCount = 2;
  catCfg.nodeCount = kNodes;
  catCfg.refreshPeriod = sim::hours(12);
  const data::Catalog catalog = data::makeUniformCatalog(catCfg);
  trace::EstimatorConfig estCfg;
  estCfg.mode = trace::EstimatorMode::kEwma;
  trace::ContactRateEstimator estimator(kNodes, estCfg, 0.0);
  const trace::ContactTrace noContacts(kNodes, {});
  sim::Simulator simulator;
  net::Network network(simulator, noContacts);
  metrics::MetricsCollector collector(catalog, 0.0);
  cache::CoopCacheConfig cacheCfg;
  cacheCfg.cachingNodesPerItem = 2;
  cacheCfg.centralityWindow = window;
  cache::CooperativeCache coop(simulator, network, catalog, estimator, collector, planning,
                               cacheCfg);
  HierarchicalConfig cfg;
  cfg.maintenance = MaintenanceMode::kRebuild;
  cfg.maintenancePeriod = sim::hours(10);
  HierarchicalRefreshScheme scheme(cfg);
  const sim::SimTime horizon = sim::hours(45);
  data::SourceProcess sources(simulator, catalog, horizon);
  coop.setScheme(&scheme);
  coop.start(sources, nullptr, horizon);
  for (data::ItemId item = 0; item < catalog.size(); ++item)
    for (const NodeId n : coop.cachingNodesOf(item)) ASSERT_LT(n, 3u);

  // Prime every pair with one 4 h interval (P ≈ 0.22 within the window).
  // The 10 h tick re-plans from it; the quiescent 30 h tick skips both
  // items.
  for (const sim::SimTime t : {sim::hours(1), sim::hours(5)}) {
    simulator.runUntil(t);
    for (NodeId i = 0; i < kNodes; ++i)
      for (NodeId j = i + 1; j < kNodes; ++j) estimator.recordContact(i, j, t);
  }
  simulator.runUntil(sim::hours(21));
  const std::size_t skippedBy20h = scheme.itemsSkipped();
  simulator.runUntil(sim::hours(31));
  ASSERT_EQ(scheme.maintenanceRuns(), 3u);
  ASSERT_EQ(scheme.itemsSkipped() - skippedBy20h, catalog.size());
  const std::size_t skippedBy30h = scheme.itemsSkipped();
  const std::size_t hitsBy30h = scheme.planCacheHits();
  const auto nclsBefore = cache::selectNcls(estimator.snapshot(sim::hours(31)), window, 3);

  // A burst of 3-minute contacts among nodes 7, 8 and 9 only: their pair
  // rates jump to P ≈ 1 and node 7 becomes the greedy's first pick.
  for (int m = 0; m < 20; ++m) {
    const sim::SimTime t = sim::hours(31) + m * sim::minutes(3);
    simulator.runUntil(t);
    for (const auto& [a, b] : {std::pair{7u, 8u}, std::pair{7u, 9u}, std::pair{8u, 9u}})
      estimator.recordContact(a, b, t);
  }
  const auto nclsAfter = cache::selectNcls(estimator.snapshot(sim::hours(33)), window, 3);
  ASSERT_NE(nclsAfter, nclsBefore);
  EXPECT_EQ(nclsAfter.front(), 7u);

  // The 40 h tick sees changed rows, none of them an item's dependency:
  // every item is skipped.
  simulator.runUntil(sim::hours(41));
  ASSERT_EQ(scheme.maintenanceRuns(), 4u);
  EXPECT_EQ(scheme.itemsSkipped() - skippedBy30h, catalog.size());
  EXPECT_EQ(scheme.planCacheHits() - hitsBy30h, catalog.size());
}

TEST(HierarchicalScheme, EnergyWeightSteersHelperSelection) {
  // Two candidate helpers with identical contribution; the energy weight
  // must break the tie toward the fuller battery.
  trace::RateMatrix m(4);
  m.setRate(0, 1, 10.0);   // helper A: always fresh
  m.setRate(0, 2, 10.0);   // helper B: always fresh
  m.setRate(0, 3, 0.05);   // target: weak parent link
  m.setRate(1, 3, 2.0);
  m.setRate(2, 3, 2.0);
  HierarchyConfig hcfg;
  hcfg.fanoutBound = 3;
  const RateFn rate = [&m](NodeId i, NodeId j) { return m.rate(i, j); };
  auto h = RefreshHierarchy::build(0, {}, rate, 1.0, hcfg);
  for (NodeId n : {1u, 2u, 3u}) h.addMember(n, 0, 3);

  ReplicationConfig rcfg;
  rcfg.theta = 0.9;
  rcfg.maxHelpersPerNode = 1;
  rcfg.helperWeight = [](NodeId n) { return n == 1 ? 0.1 : 1.0; };  // node 1 drained
  const auto plan = planReplication(h, rate, 1.0, rcfg);
  ASSERT_EQ(plan.helpersOf(3).size(), 1u);
  EXPECT_EQ(plan.helpersOf(3)[0], 2u);
}

}  // namespace
}  // namespace dtncache::core
