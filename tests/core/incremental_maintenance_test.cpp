/// End-to-end equivalence of the incremental maintenance engine.
///
/// Every test here runs the same experiment twice — once with the
/// incremental fast paths (dirty-pair snapshots, maintenance-skip
/// decisions, plan-cache replay) and once under the full-recompute escape
/// hatch (HierarchicalConfig::fullMaintenance) — and requires the two
/// runs to be observationally identical: same metrics, same traffic, same
/// counters, and the same structured event trace, byte for byte. The escape hatch
/// additionally cross-checks every plan-cache hit against a fresh
/// recompute internally, so a pass here certifies both directions.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "runner/experiment.hpp"

namespace dtncache::runner {
namespace {

ExperimentConfig baseConfig() {
  ExperimentConfig cfg;
  cfg.trace = trace::homogeneousConfig(14, 6.0, sim::days(3), 11);
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 2.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.hierarchical.maintenancePeriod = sim::minutes(30);
  return cfg;
}

/// Run `cfg` incrementally and under the escape hatch; both with a tracer
/// attached so the comparison covers the full event stream.
struct PairedRuns {
  ExperimentOutput incremental;
  ExperimentOutput full;
  std::string incrementalTrace;
  std::string fullTrace;
};

PairedRuns runPaired(ExperimentConfig cfg) {
  PairedRuns out;
  obs::Tracer incTracer("paired");
  cfg.hierarchical.fullMaintenance = false;
  cfg.tracer = &incTracer;
  out.incremental = runExperiment(cfg);
  out.incrementalTrace = incTracer.buffer();

  obs::Tracer fullTracer("paired");
  cfg.hierarchical.fullMaintenance = true;
  cfg.tracer = &fullTracer;
  out.full = runExperiment(cfg);
  out.fullTrace = fullTracer.buffer();
  return out;
}

/// Exact equality over every deterministic output field. Doubles compare
/// with == on purpose: the contract is bit-identity, not tolerance.
void expectIdentical(const PairedRuns& runs) {
  const ExperimentOutput& a = runs.incremental;
  const ExperimentOutput& b = runs.full;
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.results.meanFreshFraction, b.results.meanFreshFraction);
  EXPECT_EQ(a.results.finalFreshFraction, b.results.finalFreshFraction);
  EXPECT_EQ(a.results.meanValidFraction, b.results.meanValidFraction);
  EXPECT_EQ(a.results.refreshPushes, b.results.refreshPushes);
  EXPECT_EQ(a.results.refreshWithinPeriodRatio, b.results.refreshWithinPeriodRatio);
  EXPECT_EQ(a.results.copiesTracked, b.results.copiesTracked);
  EXPECT_EQ(a.results.queries.issued, b.results.queries.issued);
  EXPECT_EQ(a.results.queries.answered, b.results.queries.answered);
  EXPECT_EQ(a.results.queries.answeredFresh, b.results.queries.answeredFresh);
  EXPECT_EQ(a.results.queries.localHits, b.results.queries.localHits);
  EXPECT_EQ(a.results.transfers.total().messages, b.results.transfers.total().messages);
  EXPECT_EQ(a.results.transfers.total().bytes, b.results.transfers.total().bytes);
  EXPECT_EQ(a.results.transfers.perNodeBytes(), b.results.transfers.perNodeBytes());
  EXPECT_EQ(a.replicationAssignments, b.replicationAssignments);
  EXPECT_EQ(a.meanPredictedProbability, b.meanPredictedProbability);
  EXPECT_EQ(a.minPredictedProbability, b.minPredictedProbability);
  EXPECT_EQ(a.unmetNodes, b.unmetNodes);
  EXPECT_EQ(a.maxHierarchyDepth, b.maxHierarchyDepth);
  EXPECT_EQ(a.reparentCount, b.reparentCount);
  EXPECT_EQ(a.churnTransitions, b.churnTransitions);
  EXPECT_EQ(a.churnRepairs, b.churnRepairs);
  EXPECT_EQ(a.contactsSuppressed, b.contactsSuppressed);
  EXPECT_EQ(a.depletedNodes, b.depletedNodes);
  EXPECT_EQ(a.meanRemainingBattery, b.meanRemainingBattery);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  // Every counter, including core.maintenance.dirty_pairs / .skipped /
  // core.plan.cache_hits: the bookkeeping itself must not diverge, or the
  // result-sink columns would differ between the two paths.
  EXPECT_EQ(a.counters, b.counters);
  // Strongest check: the full structured event stream (plans, helper
  // assignments, pushes, maintenance passes) byte for byte. Replayed plans
  // must re-emit exactly what a recompute would have emitted.
  EXPECT_EQ(runs.incrementalTrace, runs.fullTrace);
}

std::uint64_t counterOf(const ExperimentOutput& out, const std::string& name) {
  for (const auto& [k, v] : out.counters)
    if (k == name) return v;
  return 0;
}

TEST(IncrementalMaintenance, MatchesFullRecomputeAcrossEstimatorAndMaintenanceModes) {
  for (const auto estimatorMode : {trace::EstimatorMode::kEwma,
                                   trace::EstimatorMode::kSlidingWindow,
                                   trace::EstimatorMode::kCumulative}) {
    for (const auto maintenance : {core::MaintenanceMode::kRebuild,
                                   core::MaintenanceMode::kLocalRepair,
                                   core::MaintenanceMode::kStatic}) {
      ExperimentConfig cfg = baseConfig();
      cfg.estimator.mode = estimatorMode;
      cfg.hierarchical.maintenance = maintenance;
      expectIdentical(runPaired(cfg));
    }
  }
}

TEST(IncrementalMaintenance, SkipAndReplayPathsAreActuallyExercised) {
  // The equivalence above would be vacuous if the incremental run never
  // took a fast path. Sparse contacts against a short tick period leave
  // most rows untouched between ticks: a warm EWMA estimator must then
  // skip item evaluations and answer others from the plan cache.
  ExperimentConfig cfg = baseConfig();
  cfg.trace = trace::homogeneousConfig(24, 1.0, sim::days(3), 11);
  cfg.hierarchical.maintenancePeriod = sim::minutes(10);
  cfg.estimator.mode = trace::EstimatorMode::kEwma;
  cfg.hierarchical.maintenance = core::MaintenanceMode::kRebuild;
  const PairedRuns runs = runPaired(cfg);
  expectIdentical(runs);
  EXPECT_GT(counterOf(runs.incremental, "core.maintenance.skipped"), 0u);
  EXPECT_GT(counterOf(runs.incremental, "core.plan.cache_hits"), 0u);
  EXPECT_GT(counterOf(runs.incremental, "core.maintenance.dirty_pairs"), 0u);
  // Same tick cadence on both paths.
  EXPECT_EQ(counterOf(runs.incremental, "core.maintenance.runs"),
            counterOf(runs.full, "core.maintenance.runs"));
}

TEST(IncrementalMaintenance, MatchesFullRecomputeUnderChurn) {
  // Churn repairs replan through the live (unversioned) path mid-tick;
  // those plans are stored unkeyed and must not poison later tick reuse.
  ExperimentConfig cfg = baseConfig();
  cfg.estimator.mode = trace::EstimatorMode::kEwma;
  cfg.hierarchical.maintenance = core::MaintenanceMode::kLocalRepair;
  cfg.churnEnabled = true;
  cfg.churn.meanUptime = sim::hours(18);
  cfg.churn.meanDowntime = sim::hours(4);
  expectIdentical(runPaired(cfg));
}

TEST(IncrementalMaintenance, MatchesFullRecomputeWithEnergyAwarePlanning) {
  // An installed energy weight disables plan reuse (battery state lives
  // outside the versioned inputs); the engine must degrade to replanning
  // every tick and still match the escape hatch exactly.
  ExperimentConfig cfg = baseConfig();
  cfg.estimator.mode = trace::EstimatorMode::kEwma;
  cfg.energyEnabled = true;
  cfg.energyAwarePlanning = true;
  const PairedRuns runs = runPaired(cfg);
  expectIdentical(runs);
  EXPECT_EQ(counterOf(runs.incremental, "core.plan.cache_hits"), 0u);
}

TEST(IncrementalMaintenance, MatchesFullRecomputeWithOracleRates) {
  // Oracle planning bypasses the estimator snapshot entirely; the skip
  // logic must treat constant inputs consistently on both paths.
  ExperimentConfig cfg = baseConfig();
  cfg.hierarchical.useOracleRates = true;
  expectIdentical(runPaired(cfg));
}

TEST(IncrementalMaintenance, MatchesFullRecomputeAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    ExperimentConfig cfg = baseConfig();
    cfg.estimator.mode = trace::EstimatorMode::kEwma;
    cfg.seed = seed;
    expectIdentical(runPaired(cfg));
  }
}

TEST(IncrementalMaintenance, ConfigFlagActivatesEscapeHatch) {
  core::HierarchicalConfig cfg;
  core::HierarchicalRefreshScheme incremental(cfg);
  EXPECT_FALSE(incremental.fullMaintenanceActive());
  cfg.fullMaintenance = true;
  core::HierarchicalRefreshScheme full(cfg);
  EXPECT_TRUE(full.fullMaintenanceActive());
}

}  // namespace
}  // namespace dtncache::runner
