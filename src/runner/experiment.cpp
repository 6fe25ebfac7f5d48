#include "runner/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <future>
#include <memory>
#include <system_error>
#include <thread>

#include "data/source.hpp"
#include "net/network.hpp"
#include "runner/shard_plan.hpp"
#include "sim/assert.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_cache.hpp"

namespace dtncache::runner {

const char* schemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kHierarchical: return "Hierarchical";
    case SchemeKind::kNoRefresh: return "NoRefresh";
    case SchemeKind::kSourceDirect: return "SourceDirect";
    case SchemeKind::kEpidemic: return "Epidemic";
    case SchemeKind::kFlooding: return "Flooding";
    case SchemeKind::kPull: return "Pull";
    case SchemeKind::kInvalidation: return "Invalidation";
  }
  return "?";
}

std::vector<SchemeKind> allSchemes() {
  return {SchemeKind::kHierarchical, SchemeKind::kNoRefresh,
          SchemeKind::kSourceDirect, SchemeKind::kPull,
          SchemeKind::kInvalidation, SchemeKind::kEpidemic,
          SchemeKind::kFlooding};
}

namespace {

// Every standard counter/timer, pre-registered before the run so that all
// schemes (which touch different subsets) snapshot the identical sorted
// name set — result-sink columns then line up across rows. Keep in sync
// with docs/observability.md.
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
  static const char* const kTimers[] = {"core.maintenance", "runner.start",  "runner.run",
                                        "trace.world",      "trace.warmup",  "trace.warmup_wait"};
  for (const char* name : kCounters) registry.counter(name);
  for (const char* name : kTimers) registry.timer(name);
}

}  // namespace

trace::SyntheticTraceConfig worldTraceConfig(const ExperimentConfig& config) {
  trace::SyntheticTraceConfig traceCfg = config.trace;
  traceCfg.seed = traceCfg.seed * 1000003 + config.seed;
  return traceCfg;
}

ExperimentOutput runExperiment(const ExperimentConfig& config) {
  obs::Registry registry;
  preregisterObservables(registry);

  // --- traces ---------------------------------------------------------------
  const trace::SyntheticTraceConfig traceCfg = worldTraceConfig(config);
  const bool external = config.externalTrace != nullptr;

  // Estimator, pre-fed with a warm-up trace at negative times.
  trace::ContactRateEstimator estimator(
      external ? config.externalTrace->nodeCount() : traceCfg.nodeCount, config.estimator,
      -config.estimatorWarmup);

  // A generated world's warm-up is a second, independent trace: a helper
  // thread generates its contacts and feeds them to the estimator while this
  // thread generates the world. The future is declared after the estimator,
  // so every exit path (a throw from the world generation included) joins
  // the helper before the estimator goes.
  obs::Timer& warmupTimer = registry.timer("trace.warmup");
  const auto feedGeneratedWarmup = [&] {
    obs::ScopedTimer timed(warmupTimer);
    trace::SyntheticTraceConfig warmCfg = traceCfg;
    warmCfg.duration = config.estimatorWarmup;
    warmCfg.seed = traceCfg.seed + 777;
    const auto warm = trace::contactsShared(warmCfg);
    for (const auto& c : warm->trace.contacts())
      estimator.recordContact(c.a, c.b, c.start - config.estimatorWarmup);
  };
  std::future<void> warmup;
  if (!external && config.estimatorWarmup > 0.0) {
    try {
      warmup = std::async(std::launch::async, feedGeneratedWarmup);
    } catch (const std::system_error&) {
      feedGeneratedWarmup();  // no thread to be had: the same work, inline
    }
  }

  std::shared_ptr<const trace::SyntheticTrace> worldShared;
  sim::SimTime horizon = 0.0;
  {
    obs::ScopedTimer timed(registry.timer("trace.world"));
    if (external) {
      // Memoized: every job of a sweep arm points at the same loaded trace;
      // copying it and refitting the full MLE rate matrix per job was the
      // dominant per-job setup cost on the external-trace path.
      worldShared = trace::externalShared(*config.externalTrace);
      horizon = worldShared->trace.duration();
    } else {
      // Memoized: sweep grids and bench reps replay identical (config, seed)
      // traces many times; generation is RNG-bound and worth sharing.
      worldShared = trace::generateShared(traceCfg);
      horizon = traceCfg.duration;
    }
  }
  const trace::SyntheticTrace& world = *worldShared;

  if (external && config.estimatorWarmup > 0.0) {
    // An external trace has no second trace: its own prefix is the history.
    obs::ScopedTimer timed(warmupTimer);
    for (const auto& c : world.trace.contacts()) {
      if (c.start >= config.estimatorWarmup) break;
      estimator.recordContact(c.a, c.b, c.start - config.estimatorWarmup);
    }
  }
  {
    obs::ScopedTimer timed(registry.timer("trace.warmup_wait"));
    if (warmup.valid()) warmup.get();  // rethrows a warm-up failure
  }

  // --- substrate --------------------------------------------------------------
  data::CatalogConfig catalogCfg = config.catalog;
  catalogCfg.nodeCount = world.trace.nodeCount();
  const data::Catalog catalog = data::makeUniformCatalog(catalogCfg);

  sim::Simulator simulator;
  net::NetworkConfig netCfg = config.network;
  netCfg.lossSeed = netCfg.lossSeed * 7919 + config.seed;
  net::Network network(simulator, world.trace, netCfg);
  metrics::MetricsCollector collector(catalog, 0.0);

  cache::CoopCacheConfig cacheCfg = config.cache;
  if (config.allocation != cache::AllocationPolicy::kUniform) {
    const sim::ZipfSampler zipf(catalog.size(), config.workload.zipfExponent);
    std::vector<double> popularity(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) popularity[i] = zipf.probability(i);
    const std::size_t total = catalog.size() * cacheCfg.cachingNodesPerItem;
    const std::size_t maxPerItem =
        std::min<std::size_t>(world.trace.nodeCount() - 1, 3 * cacheCfg.cachingNodesPerItem);
    cacheCfg.cachingNodesPerItemOverride =
        cache::allocateCacheSlots(popularity, total, /*minPerItem=*/2, maxPerItem,
                                  config.allocation);
  }
  cache::CooperativeCache coop(simulator, network, catalog, estimator, collector,
                               world.rates, cacheCfg);

  // --- observability ----------------------------------------------------------
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
  if (hierarchical != nullptr)
    hierarchical->setObservability(config.tracer, &registry);

  // --- churn and energy ---------------------------------------------------------
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
      // Planning state lives inside the scheme's copied config; route the
      // battery weight in through a fresh replication config.
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

  // --- sharded kernel gating --------------------------------------------------
  std::size_t shards = config.shards;
  if (const char* env = std::getenv("DTNCACHE_SHARDS"); env != nullptr && *env != '\0')
    shards = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  if (shards == 0) {
    // Auto: only large runs amortize the epoch coordination; use half the
    // cores, capped at 4 (fence scans are serial, Amdahl bites early).
    const std::size_t hw = std::thread::hardware_concurrency();
    shards = world.trace.nodeCount() >= 16384
                 ? std::min<std::size_t>(4, std::max<std::size_t>(1, hw / 2))
                 : 1;
  }
  // Energy models charge batteries inside worker-side transfers, and
  // non-shardable schemes mutate protocol state on every contact: both get
  // the plain kernel (identical output either way).
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
    obs::ScopedTimer timed(&registry.timer("runner.start"));
    coop.start(sources, workload.get(), horizon);
  }
  ShardStats shardStats;
  {
    obs::ScopedTimer timed(&registry.timer("runner.run"));
    if (sharded) {
      ShardPlanConfig plan;
      plan.shards = shards;
      plan.shardMap = config.shardMapOverride.empty()
                          ? makeShardMap(world.trace.nodeCount(), shards, world.community)
                          : config.shardMapOverride;
      shardStats = runSharded(simulator, network, coop, estimator, config.tracer,
                              registry, horizon, plan);
    } else {
      simulator.runUntil(horizon);
    }
  }

  // --- results ----------------------------------------------------------------
  ExperimentOutput out;
  out.scheme = scheme->name();
  out.results = collector.finalize(horizon, network.transfers());
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
  // The sharded driver delivers contacts outside the queue; adding them back
  // keeps the throughput denominator identical to the plain kernel's.
  out.eventsProcessed = simulator.eventsProcessed() + shardStats.contactsProcessed;
  out.shardStats = shardStats;
  out.counters = registry.counterSnapshot();
  out.timers = registry.timerSnapshot();
  return out;
}

std::vector<ExperimentOutput> runSchemeComparison(ExperimentConfig config,
                                                  std::vector<SchemeKind> schemes) {
  if (schemes.empty()) schemes = allSchemes();
  std::vector<ExperimentOutput> out;
  out.reserve(schemes.size());
  for (SchemeKind kind : schemes) {
    config.scheme = kind;
    out.push_back(runExperiment(config));
  }
  return out;
}

}  // namespace dtncache::runner
