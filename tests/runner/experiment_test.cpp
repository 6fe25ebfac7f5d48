#include "runner/experiment.hpp"

#include <gtest/gtest.h>

#include "sim/assert.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"
#include "trace/mobility.hpp"
#include "trace/trace_cache.hpp"

namespace dtncache::runner {
namespace {

TEST(Experiment, SchemeNamesAreDistinctAndComplete) {
  const auto schemes = allSchemes();
  EXPECT_EQ(schemes.size(), 7u);
  std::vector<std::string> names;
  for (const auto k : schemes) names.push_back(schemeName(k));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Experiment, ExternalTraceDrivesTheRun) {
  // Build a small dense trace by generation, then feed it back as external.
  const auto world = trace::generate(trace::homogeneousConfig(15, 6.0, sim::days(5), 9));

  ExperimentConfig cfg;
  cfg.externalTrace = &world.trace;
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 2.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.estimatorWarmup = sim::days(1);

  const auto out = runExperiment(cfg);
  EXPECT_EQ(out.traceStats.nodeCount, 15u);
  EXPECT_EQ(out.traceStats.contactCount, world.trace.contacts().size());
  EXPECT_GT(out.results.meanFreshFraction, 0.2);
  EXPECT_GT(out.results.queries.issued, 0u);
}

TEST(Experiment, ExternalTraceMatchesEquivalentGeneratedRun) {
  // Running on the externally supplied copy of the exact same contacts
  // should reproduce the generated-run shape (not exactly: planning rates
  // are fit from the trace rather than ground truth, and the estimator
  // warm-up uses the trace head — but freshness must be in the same band).
  auto gen = trace::homogeneousConfig(15, 6.0, sim::days(5), 9);
  ExperimentConfig cfg;
  cfg.trace = gen;
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 0.0;
  cfg.cache.cachingNodesPerItem = 5;
  const auto generated = runExperiment(cfg);

  gen.seed = gen.seed * 1000003 + cfg.seed;  // mirror the runner's mixing
  const auto world = trace::generate(gen);
  ExperimentConfig ext = cfg;
  ext.externalTrace = &world.trace;
  const auto external = runExperiment(ext);

  EXPECT_NEAR(external.results.meanFreshFraction, generated.results.meanFreshFraction,
              0.15);
}

TEST(Experiment, PullCountsSurfaceForBothPullingSchemes) {
  ExperimentConfig cfg;
  cfg.trace = trace::homogeneousConfig(15, 6.0, sim::days(5), 9);
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(6);
  cfg.workload.queriesPerNodePerDay = 0.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.scheme = SchemeKind::kPull;
  EXPECT_GT(runExperiment(cfg).pullsIssued, 0u);
  cfg.scheme = SchemeKind::kInvalidation;
  EXPECT_GT(runExperiment(cfg).pullsIssued, 0u);
  cfg.scheme = SchemeKind::kNoRefresh;
  EXPECT_EQ(runExperiment(cfg).pullsIssued, 0u);
}

/// Everything deterministic a run reports: the sweep sinks' record with
/// wall clock off, plus the event counts.
std::string renderOutput(const ExperimentConfig& config, const ExperimentOutput& out) {
  sweep::JobResult result;
  result.job.config = config;
  result.output = out;
  return sweep::renderJsonlLine(sweep::recordFields(result, /*wallClock=*/false)) + "events " +
         std::to_string(out.eventsProcessed) + " peak " + std::to_string(out.peakPendingEvents);
}

ExperimentConfig mobility2k() {
  ExperimentConfig cfg;
  cfg.trace = trace::mobilityConfig(2000, 5);
  cfg.trace.duration = sim::days(2);
  cfg.estimatorWarmup = sim::days(2);
  cfg.catalog.itemCount = 4;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 1.0;
  cfg.cache.cachingNodesPerItem = 8;
  return cfg;
}

TEST(Experiment, WarmupBesideTheWorldKeepsTheSerialAssemblysOutput) {
  // FNV-1a 64 of renderOutput() from the serial assembly this replaced: the
  // warm-up generated as a full trace (rates included), after the world,
  // on the calling thread. The contacts it fed, in their order, are what
  // the estimator sees either way, so the output must not move.
  constexpr std::uint64_t kSerialAssemblyDigest = 0x06f4355c4fa6b374ull;
  trace::clearTraceCache();
  const ExperimentConfig cfg = mobility2k();
  const std::string cold = renderOutput(cfg, runExperiment(cfg));
  const std::string memoized = renderOutput(cfg, runExperiment(cfg));  // both traces hit
  EXPECT_EQ(cold, memoized);
  EXPECT_EQ(sweep::fnv1a64(cold), kSerialAssemblyDigest) << std::hex << sweep::fnv1a64(cold)
                                                         << "\n" << cold;

  // The digest would not notice a lost warm-up if the output ignored it.
  ExperimentConfig coldStart = cfg;
  coldStart.estimatorWarmup = 0.0;
  EXPECT_NE(renderOutput(cfg, runExperiment(coldStart)), cold);
}

TEST(Experiment, WorldGenerationThrowWhileTheWarmupRunsPropagates) {
  trace::clearTraceCache();
  ExperimentConfig cfg = mobility2k();
  cfg.trace.duration = 0.0;  // an invalid world; the warm-up trace is valid
  EXPECT_THROW((void)runExperiment(cfg), InvariantViolation);
  // The helper was joined before the throw left the call: its warm-up is
  // in the memo, and the failed world left no entry behind.
  auto stats = trace::traceCacheStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);

  cfg.trace.duration = sim::days(1);
  EXPECT_GT(runExperiment(cfg).eventsProcessed, 0u);
  stats = trace::traceCacheStats();
  EXPECT_EQ(stats.misses, 3u);  // the new world; the warm-up is a hit
  EXPECT_EQ(stats.hits, 1u);
}

}  // namespace
}  // namespace dtncache::runner
