/// \file bench_kernel.cpp
/// End-to-end simulation-kernel throughput benchmark.
///
/// Measures the costs that bound every sweep job in this repo: raw
/// event-queue throughput (schedule+pop, steady-state churn, mixed cancel),
/// contact-pipeline replay speed on the two standard synthetic traces, a
/// full trace-driven experiment, and replication-planning throughput. Each
/// benchmark also reports the peak pending-event-set size — the kernel's
/// memory footprint driver.
///
/// Emits a machine-readable JSON snapshot (`--json=PATH`) consumed by
/// scripts/bench_baseline.sh, which folds snapshots into the tracked
/// BENCH_kernel.json baseline; scripts/bench_compare.py diffs two
/// snapshots with a percentage threshold. Run from a Release build
/// (scripts/bench_baseline.sh does this for you) — CMake warns otherwise.
///
/// A snapshot records its host (usable cores, CPU model, compiler and
/// flags), so bench_compare.py can refuse cross-host comparisons, and every
/// benchmark's spread: the count and min/median/max wall time of its timed
/// repetitions (`reps`, `rep_min_ms`, `rep_median_ms`, `rep_max_ms`). The
/// JSON file is rewritten after each benchmark, with `"complete": false`
/// until the last one, so a run that dies part-way keeps what it measured.
///
///   bench_kernel [--json=PATH] [--label=NAME] [--quick]

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "cache/cache_store.hpp"
#include "cache/centrality.hpp"
#include "core/freshness.hpp"
#include "core/hierarchical_scheme.hpp"
#include "core/hierarchy.hpp"
#include "core/plan_cache.hpp"
#include "core/replication.hpp"
#include "data/source.hpp"
#include "net/network.hpp"
#include "runner/experiment.hpp"
#include "sim/assert.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sweep/distributed.hpp"
#include "sweep/work_unit.hpp"
#include "trace/estimator.hpp"
#include "trace/generators.hpp"

#ifndef DTNCACHE_BUILD_TYPE
#define DTNCACHE_BUILD_TYPE "unknown"
#endif
#ifndef DTNCACHE_COMPILER
#define DTNCACHE_COMPILER "unknown"
#endif
#ifndef DTNCACHE_CXX_FLAGS
#define DTNCACHE_CXX_FLAGS "unknown"
#endif

namespace dtncache::bench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall times of the current benchmark's timed repetitions; main() turns
/// them into the spread columns and clears them after each benchmark.
std::vector<double>& repSeconds() {
  static std::vector<double> reps;
  return reps;
}

/// Record one timed repetition and return its length.
double recordRep(double secs) {
  repSeconds().push_back(secs);
  return secs;
}

/// One benchmark's metrics, in insertion order (stable JSON output).
struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void set(const std::string& name, double v) { values.push_back({name, v}); }
};

/// Deterministic 64-bit mix (splitmix64) for synthetic event times.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Best-of-`reps` wall time of `body` (min absorbs scheduler noise).
template <typename F>
double bestSeconds(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    best = std::min(best, recordRep(secondsSince(t0)));
  }
  return best;
}

/// Bulk load: schedule N events at pseudorandom times, then drain.
Metrics benchSchedulePop(std::size_t n, int reps) {
  std::uint64_t fired = 0;
  const double secs = bestSeconds(reps, [&] {
    sim::EventQueue q;
    std::uint64_t s = 1;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule(static_cast<double>(mix64(s) >> 44), [&fired](sim::SimTime) { ++fired; });
    while (!q.empty()) q.runNext();
  });
  Metrics m;
  m.set("events_per_sec", static_cast<double>(n) / secs);
  m.set("ns_per_event", secs * 1e9 / static_cast<double>(n));
  DTNCACHE_CHECK(fired == static_cast<std::uint64_t>(reps) * n);
  return m;
}

/// Steady state: a ring of `live` events; each pop schedules a successor.
/// This is the shape of a running simulation (timers + streamed contacts).
Metrics benchSteadyState(std::size_t live, std::size_t total, int reps) {
  const double secs = bestSeconds(reps, [&] {
    sim::EventQueue q;
    std::uint64_t s = 2;
    std::uint64_t remaining = total;
    for (std::size_t i = 0; i < live; ++i)
      q.schedule(static_cast<double>(mix64(s) >> 44), [](sim::SimTime) {});
    while (!q.empty() && remaining > 0) {
      const sim::SimTime t = q.runNext();
      --remaining;
      q.schedule(t + static_cast<double>((mix64(s) >> 50) + 1), [](sim::SimTime) {});
    }
    while (!q.empty()) q.runNext();
  });
  Metrics m;
  m.set("events_per_sec", static_cast<double>(total) / secs);
  m.set("ns_per_event", secs * 1e9 / static_cast<double>(total));
  return m;
}

/// Mixed cancel: schedule N, cancel every other id as it goes, drain the
/// survivors. Exercises the cancellation path and lazy heap purge.
Metrics benchMixedCancel(std::size_t n, int reps) {
  const double secs = bestSeconds(reps, [&] {
    sim::EventQueue q;
    std::uint64_t s = 3;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(
          q.schedule(static_cast<double>(mix64(s) >> 44), [](sim::SimTime) {}));
      if (i % 2 == 1) q.cancel(ids[i - 1]);
    }
    while (!q.empty()) q.runNext();
  });
  const double ops = static_cast<double>(n + n / 2 + n / 2);  // sched + cancel + pop
  Metrics m;
  m.set("ops_per_sec", ops / secs);
  m.set("ns_per_op", secs * 1e9 / ops);
  return m;
}

/// Contact-pipeline replay: the network streams a whole trace through the
/// kernel with a no-op protocol. Isolates trace delivery from protocol cost.
Metrics benchNetReplay(const trace::SyntheticTraceConfig& cfg) {
  const trace::SyntheticTrace world = trace::generate(cfg);
  const auto t0 = Clock::now();
  sim::Simulator simulator;
  net::Network network(simulator, world.trace);
  std::size_t delivered = 0;
  network.start([&delivered](NodeId, NodeId, sim::SimTime, sim::SimTime,
                             net::ContactChannel&) { ++delivered; });
  simulator.runUntil(cfg.duration);
  const double secs = recordRep(secondsSince(t0));
  Metrics m;
  m.set("contacts", static_cast<double>(delivered));
  m.set("contacts_per_sec", static_cast<double>(delivered) / secs);
  m.set("events_per_sec", static_cast<double>(simulator.eventsProcessed()) / secs);
  m.set("peak_pending", static_cast<double>(simulator.peakPendingEvents()));
  m.set("wall_ms", secs * 1e3);
  return m;
}

/// Full trace-driven experiment (hierarchical scheme): the end-to-end
/// number a sweep job pays per cell. Min over reps like every other bench:
/// the first rep additionally pays synthetic-trace generation, later reps
/// replay the memoized trace (trace/trace_cache.hpp) — exactly a sweep's
/// steady state, where every scheme arm after the first reuses the seed's
/// cached trace. Outputs are identical across reps (runExperiment is
/// deterministic), so only the clock differs.
Metrics benchExperiment(const runner::ExperimentConfig& cfg, int reps = 3) {
  runner::ExperimentOutput out;
  const double secs = bestSeconds(reps, [&] { out = runner::runExperiment(cfg); });
  std::uint64_t contacts = 0;
  for (const auto& [name, value] : out.counters)
    if (name == "net.contact.delivered") contacts = value;
  Metrics m;
  m.set("events_processed", static_cast<double>(out.eventsProcessed));
  m.set("events_per_sec", static_cast<double>(out.eventsProcessed) / secs);
  m.set("contacts_per_sec", static_cast<double>(contacts) / secs);
  m.set("peak_pending", static_cast<double>(out.peakPendingEvents));
  m.set("wall_ms", secs * 1e3);
  for (const auto& timer : out.timers)
    if (timer.name == "runner.run") m.set("runner_run_ms", timer.seconds * 1e3);
  if (out.shardStats.shards > 0) {
    // Sharded-kernel runs: how much of the trace actually ran on workers
    // (boring fraction) bounds the achievable speedup (Amdahl).
    const auto& s = out.shardStats;
    m.set("shards", static_cast<double>(s.shards));
    m.set("boring_fraction",
          static_cast<double>(s.boringContacts + s.stolenContacts) /
              static_cast<double>(std::max<std::size_t>(1, s.contactsProcessed)));
    m.set("stolen_fraction",
          static_cast<double>(s.stolenContacts) /
              static_cast<double>(std::max<std::size_t>(1, s.contactsProcessed)));
    m.set("barrier_waits", static_cast<double>(s.barrierWaits));
  }
  return m;
}

/// Hypoexponential chain preparation + evaluation: the analytical kernel
/// replication planning leans on (one prepared chain per node, evaluated at
/// τ and τ/2 per candidate pairing). Cycles chain depths 2..8 with
/// deterministic rate spreads; exercises both the prepared-object path and
/// the one-shot free functions (which reuse a thread-local scratch).
Metrics benchHypoexpCdf(std::size_t rounds, int reps) {
  double acc = 0.0;
  const double secs = bestSeconds(reps, [&] {
    std::uint64_t s = 11;
    std::vector<double> rates;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t depth = 2 + r % 7;
      rates.clear();
      for (std::size_t k = 0; k < depth; ++k)
        rates.push_back(1e-5 * (1.0 + static_cast<double>(mix64(s) % 1000)));
      const core::HypoexpCdf chain(rates);
      const double tau = 3600.0 * (1.0 + static_cast<double>(r % 24));
      acc += chain.cdf(tau) + chain.truncatedMean(tau);
      acc += core::hypoexponentialCdf(rates, tau / 2.0);
    }
  });
  DTNCACHE_CHECK(acc > 0.0);
  // Each round prepares two chains (object + free fn) and evaluates thrice.
  const double evals = static_cast<double>(rounds) * 3.0;
  Metrics m;
  m.set("evals_per_sec", evals / secs);
  m.set("ns_per_eval", secs * 1e9 / evals);
  return m;
}

/// Per-node store micro-costs: the lookups and recency updates every
/// contact handshake and query pays. A catalog-sized working set (items are
/// small dense ids) with a hit-heavy op mix: 8 find : 2 recordAccess :
/// 1 upgrade-insert, plus a miss probe per round.
Metrics benchStoreLookup(std::size_t items, std::size_t rounds, int reps) {
  std::uint64_t found = 0;
  const double secs = bestSeconds(reps, [&] {
    cache::CacheStore store(64ull * 1024 * 1024);
    for (std::size_t i = 0; i < items; ++i)
      store.insert(static_cast<data::ItemId>(i), 1, 64 * 1024, 0.0);
    std::uint64_t s = 7;
    for (std::size_t r = 0; r < rounds; ++r) {
      const double now = static_cast<double>(r);
      for (int k = 0; k < 8; ++k) {
        const auto item = static_cast<data::ItemId>(mix64(s) % items);
        if (store.find(item) != nullptr) ++found;
      }
      store.recordAccess(static_cast<data::ItemId>(mix64(s) % items), now);
      store.recordAccess(static_cast<data::ItemId>(mix64(s) % items), now);
      store.insert(static_cast<data::ItemId>(mix64(s) % items), r + 2, 64 * 1024, now);
      if (store.find(static_cast<data::ItemId>(items + (mix64(s) % items))) != nullptr)
        ++found;  // miss probe
    }
  });
  const double ops = static_cast<double>(rounds) * 12.0;
  Metrics m;
  m.set("ops_per_sec", ops / secs);
  m.set("ns_per_op", secs * 1e9 / ops);
  DTNCACHE_CHECK(found > 0);
  return m;
}

/// True while the full-recompute escape hatch is requested: the maintenance
/// benches honour the same switch the scheme itself reads, so running this
/// binary under DTNCACHE_FULL_MAINTENANCE=1 reproduces the pre-incremental
/// cost model (the recorded `pr4-maint-before` baseline).
bool fullMaintenanceEnv() {
  const char* env = std::getenv("DTNCACHE_FULL_MAINTENANCE");
  return env != nullptr && env[0] != '\0';
}

/// Replication planning throughput (hypoexponential-heavy hot loop).
/// Rates are sparse enough that most members miss θ through the chain
/// alone, so the helper-candidate loop (the expensive part) actually runs.
/// `cached` measures the maintenance steady state introduced with the plan
/// cache: one keyed probe plus an assignment-log replay per evaluation
/// instead of a full re-plan (iters are scaled up accordingly, since a
/// cached evaluation is ~1000x cheaper). With `cached` false — or under
/// DTNCACHE_FULL_MAINTENANCE — every iteration re-plans from scratch,
/// which is exactly what every maintenance tick paid before the cache.
Metrics benchPlanReplication(NodeId members, int iters, bool cached) {
  sim::Rng rng(11);
  trace::RateMatrix rates(members + 1);
  for (NodeId i = 0; i <= members; ++i)
    for (NodeId j = i + 1; j <= members; ++j)
      if (rng.bernoulli(0.7)) rates.setRate(i, j, rng.uniform(1e-6, 1e-4));
  std::vector<NodeId> ms;
  for (NodeId i = 1; i <= members; ++i) ms.push_back(i);
  const core::RateFn rate = [&rates](NodeId a, NodeId b) { return rates.rate(a, b); };
  core::HierarchyConfig hcfg;
  hcfg.fanoutBound = 3;
  const auto h = core::RefreshHierarchy::build(0, ms, rate, sim::hours(6), hcfg);
  core::ReplicationConfig rcfg;
  rcfg.theta = 0.95;

  cached = cached && !fullMaintenanceEnv();
  if (cached) iters *= 10'000;

  core::PlanCache cache;
  cache.resize(1);
  const core::PlanCache::Key key{7, 3, sim::hours(6)};
  if (cached) cache.store(0, key, core::planReplication(h, rate, sim::hours(6), rcfg));

  const auto t0 = Clock::now();
  std::size_t assignments = 0;
  double probability = 0.0;
  for (int i = 0; i < iters; ++i) {
    if (cached) {
      const core::ReplicationPlan* plan = cache.find(0, key);
      DTNCACHE_CHECK(plan != nullptr);
      // A cache hit still replays the plan's assignment log (the scheme
      // re-emits one event + counter add per assignment); fold the log so
      // the replay walk cannot be optimized out.
      for (const auto& a : plan->assignmentLog()) probability += a.probabilityAfter;
      assignments += plan->totalAssignments();
    } else {
      assignments += core::planReplication(h, rate, sim::hours(6), rcfg).totalAssignments();
    }
  }
  const double secs = recordRep(secondsSince(t0));
  Metrics m;
  m.set("plans_per_sec", static_cast<double>(iters) / secs);
  m.set("us_per_plan", secs * 1e6 / static_cast<double>(iters));
  m.set("assignments", static_cast<double>(assignments / static_cast<std::size_t>(iters)));
  DTNCACHE_CHECK(probability >= 0.0);
  return m;
}

/// Estimator snapshot cost in the maintenance steady state: a warm EWMA
/// estimator absorbs a handful of contacts per tick, then re-materializes
/// its RateMatrix. Incremental snapshots rewrite only the touched rows;
/// under DTNCACHE_FULL_MAINTENANCE every snapshot rewrites all O(N^2)
/// pairs (the pre-incremental cost).
Metrics benchEstimatorSnapshot(NodeId nodes, std::size_t contactsPerTick,
                               std::size_t snapshots) {
  trace::EstimatorConfig ecfg;
  ecfg.mode = trace::EstimatorMode::kEwma;
  trace::ContactRateEstimator est(nodes, ecfg, 0.0);
  // Two contacts per pair make every pair EWMA-stable (interval known), so
  // steady-state dirtiness comes only from the per-tick contacts below.
  for (NodeId i = 0; i < nodes; ++i)
    for (NodeId j = i + 1; j < nodes; ++j) {
      est.recordContact(i, j, 10.0 * (i + 1));
      est.recordContact(i, j, 10.0 * (i + 1) + sim::hours(1));
    }
  trace::RateMatrix m(nodes);
  sim::SimTime now = sim::days(1);
  est.snapshotInto(m, now);  // prime

  const bool force = fullMaintenanceEnv();
  std::uint64_t s = 17;
  std::size_t changed = 0;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < snapshots; ++k) {
    for (std::size_t c = 0; c < contactsPerTick; ++c) {
      const NodeId a = static_cast<NodeId>(mix64(s) % nodes);
      NodeId b = static_cast<NodeId>(mix64(s) % nodes);
      if (a == b) b = (b + 1) % nodes;
      est.recordContact(a, b, now);
    }
    now += sim::minutes(10);
    changed += est.snapshotInto(m, now, nullptr, force).changedPairs;
  }
  const double secs = recordRep(secondsSince(t0));
  Metrics out;
  out.set("snapshots_per_sec", static_cast<double>(snapshots) / secs);
  out.set("us_per_snapshot", secs * 1e6 / static_cast<double>(snapshots));
  DTNCACHE_CHECK(changed > 0);
  return out;
}

/// A maintenance tick end-to-end: the full scheme stack over a sparse
/// trace with frequent ticks, so wall-clock is dominated by periodic
/// maintenance (snapshot + NCL check + per-item skip/rebuild/replan). The
/// warm EWMA estimator and sparse contacts make most (item, tick)
/// evaluations reusable; under DTNCACHE_FULL_MAINTENANCE every tick
/// re-snapshots and rebuilds every item — the pre-incremental cost.
Metrics benchMaintenanceTick(bool quick, int reps) {
  const NodeId nodes = 56;
  const sim::SimTime duration = quick ? sim::days(5) : sim::days(15);
  const auto worldCfg = trace::homogeneousConfig(nodes, 0.05, duration, 21);
  const trace::SyntheticTrace world = trace::generate(worldCfg);
  // Dense pre-history: every pair meets often enough to be EWMA-stable
  // before the measured run starts (fed at negative times, like the
  // experiment harness's estimator warm-up).
  const auto warmCfg = trace::homogeneousConfig(nodes, 2.0, sim::days(14), 22);
  const trace::SyntheticTrace warm = trace::generate(warmCfg);

  std::size_t ticks = 0;
  std::size_t skipped = 0;
  std::size_t cacheHits = 0;
  const double secs = bestSeconds(reps, [&] {
    data::CatalogConfig ccfg;
    ccfg.itemCount = 16;
    ccfg.nodeCount = nodes;
    ccfg.refreshPeriod = sim::hours(12);
    data::Catalog catalog = data::makeUniformCatalog(ccfg);

    trace::EstimatorConfig ecfg;
    ecfg.mode = trace::EstimatorMode::kEwma;
    trace::ContactRateEstimator estimator(nodes, ecfg, -sim::days(14));
    for (const trace::Contact& c : warm.trace.contacts())
      estimator.recordContact(c.a, c.b, c.start - sim::days(14));

    sim::Simulator simulator;
    net::Network network(simulator, world.trace);
    metrics::MetricsCollector collector(catalog, 0.0);
    cache::CoopCacheConfig cacheCfg;
    cacheCfg.cachingNodesPerItem = 8;
    cache::CooperativeCache coop(simulator, network, catalog, estimator, collector,
                                 world.rates, cacheCfg);
    core::HierarchicalConfig schemeCfg;
    schemeCfg.maintenance = core::MaintenanceMode::kRebuild;
    schemeCfg.maintenancePeriod = sim::minutes(10);
    schemeCfg.relayAssisted = false;
    core::HierarchicalRefreshScheme scheme(schemeCfg, &world.rates);
    data::SourceProcess sources(simulator, catalog, duration);
    coop.setScheme(&scheme);
    coop.start(sources, nullptr, duration);
    simulator.runUntil(duration);
    ticks = scheme.maintenanceRuns();
    skipped = scheme.itemsSkipped();
    cacheHits = scheme.planCacheHits();
  });
  Metrics m;
  m.set("ticks_per_sec", static_cast<double>(ticks) / secs);
  m.set("us_per_tick", secs * 1e6 / static_cast<double>(ticks));
  m.set("items_skipped", static_cast<double>(skipped));
  m.set("plan_cache_hits", static_cast<double>(cacheHits));
  DTNCACHE_CHECK(ticks > 0);
  return m;
}

/// Multi-process sweep fan-out through a spool store: after spoolInit, 1,
/// then 2, runSpoolWorker threads lease, run, and write a small grid's
/// jobs. End-to-end jobs/s includes lease files, fragment encode + CRC,
/// store re-scans, and the idle wait on units leased by the other worker —
/// the per-job overhead a multi-host sweep adds over `--jobs N`. Both
/// variants share this one machine's cores, so jobs_per_sec vs
/// jobs_per_sec_1worker measures coordination headroom, not cross-host
/// speedup.
Metrics benchSweepFanout(std::size_t seedCount) {
  namespace fs = std::filesystem;
  sweep::SweepManifest manifest;
  manifest.grid.base.trace = trace::homogeneousConfig(12, 6.0, sim::days(1), 9);
  manifest.grid.base.catalog.itemCount = 2;
  manifest.grid.base.catalog.refreshPeriod = sim::hours(12);
  manifest.grid.base.workload.queriesPerNodePerDay = 2.0;
  manifest.grid.base.cache.cachingNodesPerItem = 4;
  manifest.grid.schemes = {runner::SchemeKind::kHierarchical,
                           runner::SchemeKind::kEpidemic};
  for (std::uint32_t s = 0; s < seedCount; ++s)
    manifest.grid.seeds.push_back(s + 1);
  manifest.wallClock = false;
  const std::size_t jobs = manifest.grid.schemes.size() * seedCount;

  Metrics m;
  double wall[3] = {0.0, 0.0, 0.0};
  for (const int workers : {1, 2}) {
    const std::string store =
        (fs::temp_directory_path() /
         ("dtncache_bench_fanout_w" + std::to_string(workers))).string();
    fs::remove_all(store);
    const auto t0 = Clock::now();
    DTNCACHE_CHECK(sweep::spoolInit(manifest, store) == jobs);
    std::vector<sweep::SpoolReport> reports(static_cast<std::size_t>(workers));
    std::vector<std::thread> pool;
    for (auto& report : reports)
      pool.emplace_back([&store, &report] {
        sweep::SpoolWorkerOptions options;
        options.storeDir = store;
        options.quiet = true;
        report = sweep::runSpoolWorker(options);
      });
    for (auto& t : pool) t.join();
    wall[workers] = secondsSince(t0);
    std::size_t completed = 0;
    for (const auto& report : reports) completed += report.completed;
    DTNCACHE_CHECK(completed == jobs);
    fs::remove_all(store);
  }
  recordRep(wall[2]);
  m.set("jobs", static_cast<double>(jobs));
  m.set("jobs_per_sec", static_cast<double>(jobs) / wall[2]);
  m.set("jobs_per_sec_1worker", static_cast<double>(jobs) / wall[1]);
  m.set("fanout_speedup", wall[1] / wall[2]);
  m.set("wall_ms", wall[2] * 1e3);
  return m;
}

/// Streamed mobility generation at large N: contact throughput of the
/// heap-driven SyntheticMobility stream. This is the generation cost a
/// 10^5-node scenario pays — O(edges) memory, no O(N^2) pass anywhere.
Metrics benchMobilityStream(std::size_t nodes, sim::SimTime duration) {
  auto cfg = trace::mobilityConfig(nodes, 1);
  cfg.duration = duration;
  const auto t0 = Clock::now();
  trace::SyntheticMobility stream(cfg);
  const double buildSecs = secondsSince(t0);
  std::size_t contacts = 0;
  trace::Contact c;
  const auto t1 = Clock::now();
  while (stream.next(c)) ++contacts;
  const double streamSecs = secondsSince(t1);
  recordRep(buildSecs + streamSecs);
  Metrics m;
  m.set("edges", static_cast<double>(stream.edgeCount()));
  m.set("contacts", static_cast<double>(contacts));
  m.set("contacts_per_sec", static_cast<double>(contacts) / streamSecs);
  m.set("build_ms", buildSecs * 1e3);
  m.set("wall_ms", (buildSecs + streamSecs) * 1e3);
  DTNCACHE_CHECK(contacts > 0);
  return m;
}

/// Sparse estimator at large N: feed a mobility stream's contacts, then
/// measure incremental snapshots (the maintenance-tick shape) where pair
/// state, dirty tracking, and the output matrix are all observed-pair
/// sized. A dense estimator at this node count would need a multi-GB
/// triangle before the first contact.
Metrics benchSparseEstimator(std::size_t nodes, std::size_t snapshots) {
  auto cfg = trace::mobilityConfig(nodes, 2);
  cfg.duration = sim::days(1);
  trace::SyntheticMobility stream(cfg);
  trace::EstimatorConfig ecfg;
  ecfg.mode = trace::EstimatorMode::kEwma;
  ecfg.backend = trace::PairBackend::kSparse;
  trace::ContactRateEstimator est(nodes, ecfg, 0.0);
  trace::Contact c;
  sim::SimTime now = 0.0;
  while (stream.next(c)) {
    est.recordContact(c.a, c.b, c.start);
    now = c.start;
  }
  trace::RateMatrix m;
  est.snapshotInto(m, now);  // prime
  std::uint64_t s = 23;
  std::size_t changed = 0;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < snapshots; ++k) {
    for (std::size_t i = 0; i < 16; ++i) {
      const NodeId a = static_cast<NodeId>(mix64(s) % nodes);
      NodeId b = static_cast<NodeId>(mix64(s) % nodes);
      if (a == b) b = static_cast<NodeId>((b + 1) % nodes);
      est.recordContact(a, b, now);
    }
    now += sim::minutes(10);
    changed += est.snapshotInto(m, now).changedPairs;
  }
  const double secs = recordRep(secondsSince(t0));
  Metrics out;
  out.set("observed_pairs", static_cast<double>(est.observedPairCount()));
  out.set("snapshots_per_sec", static_cast<double>(snapshots) / secs);
  out.set("us_per_snapshot", secs * 1e6 / static_cast<double>(snapshots));
  DTNCACHE_CHECK(changed > 0);
  return out;
}

/// Sparse centrality at large N: capability + greedy NCL selection over a
/// 10^5-node sparse rate matrix — O(edges · k) instead of O(N^2 · k).
Metrics benchSparseCentrality(std::size_t nodes, std::size_t k, int reps) {
  auto cfg = trace::mobilityConfig(nodes, 3);
  const trace::RateMatrix rates = trace::SyntheticMobility(cfg).groundTruthRates();
  std::vector<NodeId> ncls;
  const double secs = bestSeconds(reps, [&] {
    const auto cap = cache::contactCapability(rates, sim::hours(6));
    DTNCACHE_CHECK(!cap.empty());
    ncls = cache::selectNcls(rates, sim::hours(6), k);
  });
  Metrics m;
  m.set("edges", static_cast<double>(rates.observedPairCount()));
  m.set("selects_per_sec", 1.0 / secs);
  m.set("ms_per_select", secs * 1e3);
  DTNCACHE_CHECK(ncls.size() == k);
  return m;
}

/// The spread columns of one benchmark from its recorded repetitions.
void addSpread(Metrics& m, std::vector<double> reps) {
  if (reps.empty()) return;
  std::sort(reps.begin(), reps.end());
  const std::size_t mid = reps.size() / 2;
  const double median = reps.size() % 2 == 1 ? reps[mid] : (reps[mid - 1] + reps[mid]) / 2.0;
  m.set("reps", static_cast<double>(reps.size()));
  m.set("rep_min_ms", reps.front() * 1e3);
  m.set("rep_median_ms", median * 1e3);
  m.set("rep_max_ms", reps.back() * 1e3);
}

std::size_t usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto start = colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

/// A JSON string literal: quotes and backslashes escaped, control bytes dropped.
std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Write the snapshot to a temporary file and rename it over `path`, so a
/// reader never sees half a file.
void writeJson(const std::string& path, const std::string& label, bool quick, bool complete,
               const std::vector<std::pair<std::string, Metrics>>& results) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (!out.good()) {
    std::cerr << "cannot write " << tmp << "\n";
    std::exit(1);
  }
  out.precision(10);
  out << "{\n  \"schema\": 1,\n  \"label\": " << jsonString(label) << ",\n"
      << "  \"build_type\": \"" << DTNCACHE_BUILD_TYPE << "\",\n"
      << "  \"host\": {\"nproc\": " << usableCpus() << ", \"cpu\": " << jsonString(cpuModel())
      << ", \"compiler\": " << jsonString(DTNCACHE_COMPILER)
      << ", \"cxx_flags\": " << jsonString(DTNCACHE_CXX_FLAGS) << "},\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"complete\": " << (complete ? "true" : "false") << ",\n  \"results\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    \"" << results[i].first << "\": {";
    const auto& vals = results[i].second.values;
    for (std::size_t k = 0; k < vals.size(); ++k) {
      out << "\"" << vals[k].first << "\": " << vals[k].second;
      if (k + 1 < vals.size()) out << ", ";
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  out.close();
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (!out || ec) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace dtncache::bench

int main(int argc, char** argv) try {
  using namespace dtncache;
  using namespace dtncache::bench;

  std::string jsonPath;
  std::string label = "current";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) jsonPath = arg.substr(7);
    else if (arg.rfind("--label=", 0) == 0) label = arg.substr(8);
    else if (arg == "--quick") quick = true;
    else {
      std::cerr << "usage: " << argv[0] << " [--json=PATH] [--label=NAME] [--quick]\n";
      return 2;
    }
  }

  const std::size_t n = quick ? 50'000 : 200'000;
  const int reps = quick ? 2 : 5;

  // `run` receives a finished benchmark: its repetitions are in
  // repSeconds(), recorded while the argument was evaluated.
  std::vector<std::pair<std::string, Metrics>> results;
  const auto run = [&](const std::string& name, Metrics m) {
    addSpread(m, repSeconds());
    repSeconds().clear();
    results.push_back({name, std::move(m)});
    std::cout << name << ":";
    for (const auto& [k, v] : results.back().second.values) std::cout << "  " << k << "=" << v;
    std::cout << std::endl;
    if (!jsonPath.empty()) writeJson(jsonPath, label, quick, /*complete=*/false, results);
  };

  std::cout << "bench_kernel (" << DTNCACHE_BUILD_TYPE << (quick ? ", quick" : "")
            << ")\n";
  run("eq_schedule_pop", benchSchedulePop(n, reps));
  run("eq_steady_state", benchSteadyState(4096, 2 * n, reps));
  run("eq_mixed_cancel", benchMixedCancel(n, reps));

  run("store_lookup", benchStoreLookup(32, quick ? 100'000 : 400'000, reps));

  run("hypoexp_cdf", benchHypoexpCdf(quick ? 50'000 : 200'000, reps));

  run("net_replay_infocom", benchNetReplay(trace::infocomLikeConfig(1)));
  {
    auto cfg = trace::realityLikeConfig(1);
    if (quick) cfg.duration = sim::days(7);
    run("net_replay_reality", benchNetReplay(cfg));
  }

  {
    // Contact hot path in isolation: the full protocol stack (handshake,
    // scheme pushes, store lookups, metrics) with the query workload off,
    // so every event is a contact and its application-layer cost.
    auto cfg = infocomConfig(1);
    cfg.workload.queriesPerNodePerDay = 0.0;
    if (quick) cfg.trace.duration = sim::days(1);
    run("cache_contact_hot", benchExperiment(cfg));
  }

  {
    auto cfg = infocomConfig(1);
    if (quick) cfg.trace.duration = sim::days(1);
    run("sim_experiment_infocom", benchExperiment(cfg));
  }

  {
    auto cfg = realityConfig(1);
    if (quick) cfg.trace.duration = sim::days(7);
    run("sim_experiment_reality", benchExperiment(cfg));
  }

  run("plan_replication_32", benchPlanReplication(32, quick ? 50 : 200, /*cached=*/true));
  run("plan_replication_cold_32", benchPlanReplication(32, quick ? 50 : 200, /*cached=*/false));

  run("estimator_snapshot", benchEstimatorSnapshot(200, 16, quick ? 500 : 2000));
  run("maintenance_tick", benchMaintenanceTick(quick, quick ? 2 : 3));

  // Multi-process sweep overhead (docs/sweep.md): 1 then 2 spool workers
  // sharing one fragment store over a small grid.
  run("sweep_fanout", benchSweepFanout(quick ? 4 : 8));

  // Large-N suite: the sparse pair-state backend and the streamed mobility
  // generator at scales the dense paths cannot reach (docs/scaling.md).
  // Node counts stay at 10^5 even in quick mode — sparse costs scale with
  // observed pairs, so only durations/iterations shrink.
  run("mobility_stream_100k",
      benchMobilityStream(100'000, quick ? sim::days(1) : sim::days(7)));
  run("sparse_estimator_100k", benchSparseEstimator(100'000, quick ? 100 : 400));
  run("sparse_centrality_100k", benchSparseCentrality(100'000, 8, quick ? 1 : 2));
  {
    auto cfg = mobilityExperimentConfig(quick ? 20'000 : 50'000, 1);
    if (quick) cfg.trace.duration = sim::days(1);
    const std::string base =
        quick ? "sim_experiment_mobility_20k" : "sim_experiment_mobility_50k";
    cfg.shards = 1;  // pin the plain kernel (the auto heuristic would shard)
    run(base, benchExperiment(cfg, quick ? 1 : 2));
    // Sharded-kernel scaling points (same run, byte-identical output; see
    // docs/scaling.md — speedup needs >= `shards` physical cores).
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      cfg.shards = shards;
      run(base + "_shards" + std::to_string(shards),
          benchExperiment(cfg, quick ? 1 : 2));
    }
  }

  if (!jsonPath.empty()) {
    writeJson(jsonPath, label, quick, /*complete=*/true, results);
    std::cout << "wrote " << jsonPath << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_kernel: error: " << e.what() << "\n";
  return 1;
}
