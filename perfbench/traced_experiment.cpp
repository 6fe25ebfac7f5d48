#include "traced_experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "data/source.hpp"
#include "net/network.hpp"
#include "runner/shard_plan.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_cache.hpp"

namespace perfbench {

using namespace dtncache;
using runner::SchemeKind;

double steadySeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(const char* name) {
  spans_.push_back(Span{name, steadySeconds(), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanRecorder::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = steadySeconds();
  current_ = span.parent;
}

namespace {

// The standard observables runExperiment pre-registers (its list lives in an
// anonymous namespace there). A change to that list changes the counter
// snapshot, so the digest check catches a stale copy here.
void preregisterObservables(obs::Registry& registry) {
  static const char* const kCounters[] = {
      "net.contact.delivered",   "net.contact.suppressed", "net.contact.lost",
      "cache.handshake.truncated", "cache.push.delivered", "cache.push.noop",
      "cache.push.denied",       "cache.install.inserted", "cache.install.upgraded",
      "cache.install.evicted",   "cache.query.local_hit",  "cache.query.sprayed",
      "cache.reply.delivered",   "core.maintenance.runs",  "core.reparent.count",
      "core.relay.injected",     "core.churn.repairs",     "core.plan.helpers",
      "core.plan.unmet",         "core.maintenance.dirty_pairs",
      "core.maintenance.skipped", "core.plan.cache_hits",
      "shard.fence_contacts",    "shard.boring_contacts",
      "shard.fence_from_expired_only",
  };
  static const char* const kTimers[] = {"core.maintenance", "runner.start", "runner.run"};
  for (const char* name : kCounters) registry.counter(name);
  for (const char* name : kTimers) registry.timer(name);
}

}  // namespace

TracedOutput runTracedExperiment(const runner::ExperimentConfig& config) {
  TracedOutput traced;
  SpanRecorder rec;
  runner::ExperimentOutput& out = traced.output;
  std::shared_ptr<const trace::SyntheticTrace> worldShared;
  sim::SimTime horizon = 0.0;
  net::NetworkConfig netCfg = config.network;
  {
    ScopedSpan experiment(rec, "experiment");

    // --- traces -------------------------------------------------------------
    trace::SyntheticTraceConfig traceCfg = config.trace;
    traceCfg.seed = traceCfg.seed * 1000003 + config.seed;
    if (config.externalTrace != nullptr) {
      ScopedSpan s(rec, "trace.generate");
      worldShared = trace::externalShared(*config.externalTrace);
      horizon = worldShared->trace.duration();
    } else {
      ScopedSpan s(rec, "trace.generate");
      worldShared = trace::generateShared(traceCfg);
      horizon = traceCfg.duration;
    }
    const trace::SyntheticTrace& world = *worldShared;

    trace::ContactRateEstimator estimator(world.trace.nodeCount(), config.estimator,
                                          -config.estimatorWarmup);
    if (config.estimatorWarmup > 0.0) {
      if (config.externalTrace != nullptr) {
        ScopedSpan s(rec, "trace.warmup");
        for (const auto& c : world.trace.contacts()) {
          if (c.start >= config.estimatorWarmup) break;
          estimator.recordContact(c.a, c.b, c.start - config.estimatorWarmup);
        }
      } else {
        trace::SyntheticTraceConfig warmCfg = traceCfg;
        warmCfg.duration = config.estimatorWarmup;
        warmCfg.seed = traceCfg.seed + 777;
        std::shared_ptr<const trace::SyntheticTrace> warmShared;
        {
          ScopedSpan s(rec, "trace.generate");
          warmShared = trace::generateShared(warmCfg);
        }
        ScopedSpan s(rec, "trace.warmup");
        for (const auto& c : warmShared->trace.contacts())
          estimator.recordContact(c.a, c.b, c.start - config.estimatorWarmup);
      }
    }

    // --- substrate ------------------------------------------------------------
    data::CatalogConfig catalogCfg = config.catalog;
    catalogCfg.nodeCount = world.trace.nodeCount();
    const data::Catalog catalog = data::makeUniformCatalog(catalogCfg);

    sim::Simulator simulator;
    netCfg.lossSeed = netCfg.lossSeed * 7919 + config.seed;
    net::Network network(simulator, world.trace, netCfg);
    metrics::MetricsCollector collector(catalog, 0.0);

    cache::CoopCacheConfig cacheCfg = config.cache;
    if (config.allocation != cache::AllocationPolicy::kUniform) {
      const sim::ZipfSampler zipf(catalog.size(), config.workload.zipfExponent);
      std::vector<double> popularity(catalog.size());
      for (std::size_t i = 0; i < catalog.size(); ++i) popularity[i] = zipf.probability(i);
      const std::size_t total = catalog.size() * cacheCfg.cachingNodesPerItem;
      const std::size_t maxPerItem = std::min<std::size_t>(world.trace.nodeCount() - 1,
                                                           3 * cacheCfg.cachingNodesPerItem);
      cacheCfg.cachingNodesPerItemOverride = cache::allocateCacheSlots(
          popularity, total, /*minPerItem=*/2, maxPerItem, config.allocation);
    }
    // The constructor runs the NCL greedy-coverage selection (selectNcls).
    std::optional<cache::CooperativeCache> coopSlot;
    {
      ScopedSpan s(rec, "cache.ncl_select");
      coopSlot.emplace(simulator, network, catalog, estimator, collector, world.rates,
                       cacheCfg);
    }
    cache::CooperativeCache& coop = *coopSlot;

    // --- observability ----------------------------------------------------------
    obs::Registry registry;
    preregisterObservables(registry);
    network.setObservability(config.tracer, &registry);
    coop.setObservability(config.tracer, &registry);

    // --- scheme -----------------------------------------------------------------
    std::unique_ptr<cache::RefreshScheme> scheme;
    core::HierarchicalRefreshScheme* hierarchical = nullptr;
    baselines::PullScheme* pullScheme = nullptr;
    baselines::InvalidationScheme* invalidationScheme = nullptr;
    switch (config.scheme) {
      case SchemeKind::kHierarchical: {
        auto s = std::make_unique<core::HierarchicalRefreshScheme>(config.hierarchical,
                                                                   &world.rates);
        hierarchical = s.get();
        scheme = std::move(s);
        break;
      }
      case SchemeKind::kNoRefresh:
        scheme = std::make_unique<baselines::NoRefreshScheme>();
        break;
      case SchemeKind::kSourceDirect:
        scheme = std::make_unique<baselines::SourceDirectScheme>();
        break;
      case SchemeKind::kEpidemic:
        scheme = std::make_unique<baselines::EpidemicScheme>();
        break;
      case SchemeKind::kFlooding:
        scheme = std::make_unique<baselines::FloodingScheme>();
        break;
      case SchemeKind::kPull: {
        auto s = std::make_unique<baselines::PullScheme>(config.pull);
        pullScheme = s.get();
        scheme = std::move(s);
        break;
      }
      case SchemeKind::kInvalidation: {
        auto s = std::make_unique<baselines::InvalidationScheme>(config.invalidation);
        invalidationScheme = s.get();
        scheme = std::move(s);
        break;
      }
    }
    coop.setScheme(scheme.get());
    if (hierarchical != nullptr) hierarchical->setObservability(config.tracer, &registry);

    // --- churn and energy -------------------------------------------------------
    std::unique_ptr<net::ChurnProcess> churn;
    if (config.churnEnabled) {
      std::vector<NodeId> protectedNodes;
      for (data::ItemId item = 0; item < catalog.size(); ++item)
        protectedNodes.push_back(catalog.spec(item).source);
      churn = std::make_unique<net::ChurnProcess>(simulator, world.trace.nodeCount(),
                                                  config.churn, horizon, protectedNodes);
      coop.setUpPredicate([c = churn.get()](NodeId n) { return c->isUp(n); });
      if (hierarchical != nullptr && config.churnRepairEnabled) {
        hierarchical->setLivenessPredicate([c = churn.get()](NodeId n) { return c->isUp(n); });
        churn->addListener([hierarchical, &coop](NodeId n, bool up, sim::SimTime t) {
          hierarchical->onNodeStateChanged(coop, n, up, t);
        });
      }
    }
    std::unique_ptr<net::EnergyModel> energy;
    if (config.energyEnabled) {
      energy = std::make_unique<net::EnergyModel>(world.trace.nodeCount(), config.energy);
      network.setEnergyModel(energy.get());
      if (hierarchical != nullptr && config.energyAwarePlanning) {
        hierarchical->setEnergyWeight(
            [e = energy.get()](NodeId n) { return e->remainingFraction(n); });
      }
    }
    if (churn != nullptr || energy != nullptr) {
      network.setContactFilter(
          [c = churn.get(), e = energy.get()](NodeId a, NodeId b, sim::SimTime) {
            if (e != nullptr && (e->depleted(a) || e->depleted(b))) return false;
            if (c != nullptr && !c->contactAllowed(a, b)) return false;
            return true;
          });
    }

    // --- sharded kernel gating (the driver refuses DTNCACHE_* overrides, so
    // the environment switch runExperiment honours is never set here) -------
    std::size_t shards = config.shards;
    if (shards == 0) {
      const std::size_t hw = std::thread::hardware_concurrency();
      shards = world.trace.nodeCount() >= 16384
                   ? std::min<std::size_t>(4, std::max<std::size_t>(1, hw / 2))
                   : 1;
    }
    if (config.energyEnabled || !scheme->shardable()) shards = 1;
    const bool sharded = shards > 1;
    if (sharded) network.setShardedDelivery(true);

    // --- drive ------------------------------------------------------------------
    data::SourceProcess sources(simulator, catalog, horizon,
                                scheme->timerScope(cache::TimerKind::kNewVersion));

    std::unique_ptr<data::QueryWorkload> workload;
    if (config.workload.queriesPerNodePerDay > 0.0) {
      data::WorkloadConfig w = config.workload;
      w.start = 0.0;
      w.end = horizon;
      w.seed = w.seed * 131 + config.seed;
      workload = std::make_unique<data::QueryWorkload>(simulator, catalog,
                                                       world.trace.nodeCount(), w);
    }

    {
      ScopedSpan s(rec, "runner.start");
      obs::ScopedTimer timed(&registry.timer("runner.start"));
      coop.start(sources, workload.get(), horizon);
    }
    runner::ShardStats shardStats;
    {
      ScopedSpan s(rec, "sim.run");
      obs::ScopedTimer timed(&registry.timer("runner.run"));
      if (sharded) {
        runner::ShardPlanConfig plan;
        plan.shards = shards;
        plan.shardMap = config.shardMapOverride.empty()
                            ? runner::makeShardMap(world.trace.nodeCount(), shards,
                                                   world.community)
                            : config.shardMapOverride;
        shardStats = runner::runSharded(simulator, network, coop, estimator, config.tracer,
                                        registry, horizon, plan);
      } else {
        simulator.runUntil(horizon);
      }
    }

    // --- results ----------------------------------------------------------------
    out.scheme = scheme->name();
    {
      ScopedSpan s(rec, "metrics.finalize");
      out.results = collector.finalize(horizon, network.transfers());
    }
    out.traceStats = world.trace.stats();

    if (hierarchical != nullptr) {
      double sumP = 0.0;
      double minP = 1.0;
      std::size_t nodes = 0;
      for (data::ItemId item = 0; item < catalog.size(); ++item) {
        const auto& plan = hierarchical->planOf(item);
        out.replicationAssignments += plan.totalAssignments();
        out.unmetNodes += plan.unmetNodes().size();
        const auto& h = hierarchical->hierarchyOf(item);
        out.maxHierarchyDepth = std::max(out.maxHierarchyDepth, h.maxDepth());
        for (NodeId n : h.membersBelowRoot()) {
          const double p = plan.predictedProbability(n);
          sumP += p;
          minP = std::min(minP, p);
          ++nodes;
        }
      }
      out.meanPredictedProbability = sim::ratio(sumP, static_cast<double>(nodes));
      out.minPredictedProbability = nodes == 0 ? 0.0 : minP;
      out.reparentCount = hierarchical->reparentCount();
    }
    if (pullScheme != nullptr) out.pullsIssued = pullScheme->pullsIssued();
    if (invalidationScheme != nullptr) out.pullsIssued = invalidationScheme->pullsIssued();
    if (hierarchical != nullptr) out.churnRepairs = hierarchical->churnRepairs();
    if (churn != nullptr) out.churnTransitions = churn->transitions();
    out.contactsSuppressed = network.contactsSuppressed();
    if (energy != nullptr) {
      energy->advanceTo(horizon);
      out.depletedNodes = energy->depletedCount();
      out.firstDepletionTime = energy->firstDepletionTime();
      out.meanRemainingBattery = energy->meanRemainingFraction();
      out.minRemainingBattery = energy->minRemainingFraction();
    }
    out.peakPendingEvents = simulator.peakPendingEvents();
    out.eventsProcessed = simulator.eventsProcessed() + shardStats.contactsProcessed;
    out.shardStats = shardStats;
    out.counters = registry.counterSnapshot();
    out.timers = registry.timerSnapshot();
    traced.observedPairs = estimator.observedPairCount();
  }

  // Replay floor: the bare cost of streaming this trace through the network
  // layer, outside the experiment span.
  {
    ScopedSpan s(rec, "net.replay_floor");
    sim::Simulator simulator;
    net::Network network(simulator, worldShared->trace, netCfg);
    network.start([](NodeId, NodeId, sim::SimTime, sim::SimTime, net::ContactChannel&) {});
    simulator.runUntil(horizon);
  }
  traced.spans = rec.spans();
  return traced;
}

}  // namespace perfbench
