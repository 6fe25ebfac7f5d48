/// Asserts the zero-allocation steady-state contract of the contact data
/// path. In DTNCACHE_ALLOC_HOOK builds, global new/delete count every
/// allocation and CooperativeCache accumulates the allocations observed
/// inside handleContact into the `cache.hot_path.allocs` counter; after a
/// warm-up phase (scratch buffers grown, pools sized, estimator populated)
/// further contacts must not allocate at all. In normal builds the hook
/// compiles to nothing — these tests then verify the counter is NOT
/// registered, so result-sink counter columns are byte-identical with and
/// without the observability wiring.

#include <gtest/gtest.h>

#include "core/hierarchical_scheme.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "obs/alloc_hook.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace dtncache::cache {
namespace {

/// Full stack over a homogeneous trace, configured so steady state is
/// genuinely quiescent: no queries, no version bumps inside the horizon,
/// and no relay injection (relay budget keys grow with each new version by
/// design, which is amortized growth, not steady state).
struct Rig {
  Rig()
      : world(trace::generate(trace::homogeneousConfig(12, 6.0, sim::days(5), 7))),
        catalog(makeCatalog()),
        estimator(12, trace::EstimatorConfig{}, 0.0),
        network(simulator, world.trace),
        collector(catalog, 0.0),
        coop(simulator, network, catalog, estimator, collector, world.rates,
             cacheConfig()),
        scheme(schemeConfig(), &world.rates) {
    coop.setObservability(nullptr, &registry);
    sources = std::make_unique<data::SourceProcess>(simulator, catalog, sim::days(5));
    coop.setScheme(&scheme);
    coop.start(*sources, nullptr, sim::days(5));
  }

  static data::Catalog makeCatalog() {
    data::CatalogConfig cfg;
    cfg.itemCount = 3;
    cfg.nodeCount = 12;
    cfg.refreshPeriod = sim::days(30);  // no bumps within the horizon
    return data::makeUniformCatalog(cfg);
  }
  static CoopCacheConfig cacheConfig() {
    CoopCacheConfig c;
    c.cachingNodesPerItem = 5;
    return c;
  }
  static core::HierarchicalConfig schemeConfig() {
    core::HierarchicalConfig c;
    c.useOracleRates = true;
    c.relayAssisted = false;
    c.maintenance = core::MaintenanceMode::kStatic;
    return c;
  }

  std::uint64_t hotPathAllocs() const {
    for (const auto& [name, value] : registry.counterSnapshot())
      if (name == "cache.hot_path.allocs") return value;
    return 0;
  }
  bool counterRegistered() const {
    for (const auto& [name, value] : registry.counterSnapshot())
      if (name == "cache.hot_path.allocs") return true;
    return false;
  }

  trace::SyntheticTrace world;
  sim::Simulator simulator;
  data::Catalog catalog;
  trace::ContactRateEstimator estimator;
  net::Network network;
  metrics::MetricsCollector collector;
  obs::Registry registry;
  CooperativeCache coop;
  core::HierarchicalRefreshScheme scheme;
  std::unique_ptr<data::SourceProcess> sources;
};

TEST(AllocHook, CounterRegisteredOnlyInHookBuilds) {
  Rig rig;
  EXPECT_EQ(rig.counterRegistered(), obs::allocHookEnabled());
  if (!obs::allocHookEnabled()) {
    // Normal builds must observe nothing — the hook must be free.
    EXPECT_EQ(obs::threadAllocCount(), 0u);
  }
}

TEST(AllocHook, SteadyStateContactsDoNotAllocate) {
  if (!obs::allocHookEnabled())
    GTEST_SKIP() << "build with -DDTNCACHE_ALLOC_HOOK=ON to assert the contract";

  Rig rig;
  // Warm-up: scratch buffers, store slots, and estimator state all reach
  // their steady footprint within the first day of contacts.
  rig.simulator.runUntil(sim::days(1));
  const std::uint64_t afterWarmup = rig.hotPathAllocs();

  rig.simulator.runUntil(sim::days(5));
  const std::uint64_t afterSteady = rig.hotPathAllocs();
  EXPECT_EQ(afterSteady - afterWarmup, 0u)
      << "steady-state contacts allocated " << (afterSteady - afterWarmup)
      << " times";
  // Sanity: the window actually replayed contacts.
  EXPECT_GT(rig.world.trace.contacts().size(), 100u);
}

TEST(AllocHook, WarmMaintenanceTickDoesNotAllocate) {
  if (!obs::allocHookEnabled())
    GTEST_SKIP() << "build with -DDTNCACHE_ALLOC_HOOK=ON to assert the contract";

  // The steady-state maintenance tick is a snapshot refresh plus a
  // plan-cache probe per item. Once the bookkeeping is warm (snapshot
  // primed, plans stored), a quiescent tick — no dirty pairs, stable EWMA
  // estimates — must allocate nothing.
  constexpr NodeId kNodes = 24;
  trace::EstimatorConfig estCfg;
  estCfg.mode = trace::EstimatorMode::kEwma;
  trace::ContactRateEstimator estimator(kNodes, estCfg, 0.0);
  for (NodeId i = 0; i < kNodes; ++i)
    for (NodeId j = i + 1; j < kNodes; ++j) {
      // Two contacts per pair: every EWMA estimate has an interval and is
      // stable in `now` — the quiescent regime skips are made of.
      estimator.recordContact(i, j, 5.0 * (i + j));
      estimator.recordContact(i, j, 5.0 * (i + j) + 40.0 * (j - i));
    }

  trace::RateMatrix snapshot;
  core::PlanCache plans;
  plans.resize(4);
  std::vector<NodeId> changed;
  changed.reserve(kNodes);

  // Warm everything once: prime the snapshot and store a keyed plan per
  // item.
  double now = sim::days(1);
  estimator.snapshotInto(snapshot, now, &changed);
  const core::PlanCache::Key key{1, 1, sim::hours(6)};
  for (std::uint32_t item = 0; item < 4; ++item) {
    core::HierarchyConfig hcfg;
    hcfg.fanoutBound = 6;
    auto h = core::RefreshHierarchy::build(
        0, {}, [&](NodeId a, NodeId b) { return snapshot.rate(a, b); },
        sim::hours(6), hcfg);
    for (NodeId n = 1; n < 6; ++n) h.addMember(n, 0, 6);
    plans.store(item, key,
                core::planReplication(h, [&](NodeId a, NodeId b) { return snapshot.rate(a, b); },
                                      sim::hours(6), core::ReplicationConfig{}));
  }

  const std::uint64_t before = obs::threadAllocCount();
  std::size_t skippedTicks = 0;
  for (int tick = 0; tick < 200; ++tick) {
    now += sim::minutes(10);
    const auto stats = estimator.snapshotInto(snapshot, now, &changed);
    std::size_t hits = 0;
    for (std::uint32_t item = 0; item < 4; ++item)
      if (plans.find(item, key) != nullptr) ++hits;
    if (stats.changedPairs == 0 && changed.empty() && hits == 4) ++skippedTicks;
  }
  EXPECT_EQ(obs::threadAllocCount() - before, 0u)
      << "warm maintenance ticks allocated";
  EXPECT_EQ(skippedTicks, 200u);  // the loop really ran the quiescent path
}

}  // namespace
}  // namespace dtncache::cache
