#include "sweep/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>

#include "runner/replicate.hpp"
#include "sweep/result_sink.hpp"
#include "trace/trace_cache.hpp"

namespace dtncache::sweep {
namespace {

/// Small, fast experiment: 15 nodes, 3 days, dense contacts.
runner::ExperimentConfig tinyConfig() {
  runner::ExperimentConfig cfg;
  cfg.trace = trace::homogeneousConfig(15, 6.0, sim::days(3), 9);
  cfg.catalog.itemCount = 3;
  cfg.catalog.refreshPeriod = sim::hours(12);
  cfg.workload.queriesPerNodePerDay = 2.0;
  cfg.cache.cachingNodesPerItem = 5;
  cfg.estimatorWarmup = sim::days(1);
  return cfg;
}

TEST(ExpandGrid, DefaultGridIsOneJob) {
  SweepGrid grid;
  grid.base = tinyConfig();
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].index, 0u);
  EXPECT_EQ(jobs[0].config.seed, grid.base.seed);
  EXPECT_TRUE(jobs[0].overrides.empty());
}

TEST(ExpandGrid, AxesOuterSchemesThenSeedsInner) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kEpidemic, runner::SchemeKind::kSourceDirect};
  grid.seeds = {1, 2};
  grid.axes = {{"catalog.itemCount", {"3", "5"}}};
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 8u);

  // Axis outermost, scheme next, seed innermost.
  EXPECT_EQ(jobs[0].config.catalog.itemCount, 3u);
  EXPECT_EQ(jobs[0].config.scheme, runner::SchemeKind::kEpidemic);
  EXPECT_EQ(jobs[0].config.seed, 1u);
  EXPECT_EQ(jobs[1].config.seed, 2u);
  EXPECT_EQ(jobs[2].config.scheme, runner::SchemeKind::kSourceDirect);
  EXPECT_EQ(jobs[4].config.catalog.itemCount, 5u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    ASSERT_EQ(jobs[i].overrides.size(), 1u);
    EXPECT_EQ(jobs[i].overrides[0].first, "catalog.itemCount");
  }
  EXPECT_EQ(jobs[0].overrides[0].second, "3");
  EXPECT_EQ(jobs[7].overrides[0].second, "5");
}

TEST(ExpandGrid, TwoAxesLastAxisFastest) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCount", {"2", "4"}},
               {"cache.cachingNodesPerItem", {"3", "6"}}};
  const auto jobs = expandGrid(grid);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].config.catalog.itemCount, 2u);
  EXPECT_EQ(jobs[0].config.cache.cachingNodesPerItem, 3u);
  EXPECT_EQ(jobs[1].config.cache.cachingNodesPerItem, 6u);
  EXPECT_EQ(jobs[2].config.catalog.itemCount, 4u);
  EXPECT_EQ(jobs[3].config.cache.cachingNodesPerItem, 6u);
}

TEST(ExpandGrid, UnknownAxisKeyThrowsBeforeAnythingRuns) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCuont", {"3"}}};  // typo
  EXPECT_THROW(expandGrid(grid), InvariantViolation);
}

TEST(ExpandGrid, EmptyAxisIsRejected) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.axes = {{"catalog.itemCount", {}}};
  EXPECT_THROW(expandGrid(grid), InvariantViolation);
}

TEST(JsonScalarTest, NumbersAndBooleansPassThroughStringsQuoted) {
  EXPECT_EQ(jsonScalar("3"), "3");
  EXPECT_EQ(jsonScalar("-0.5e3"), "-0.5e3");
  EXPECT_EQ(jsonScalar("true"), "true");
  EXPECT_EQ(jsonScalar("false"), "false");
  EXPECT_EQ(jsonScalar("epidemic"), "\"epidemic\"");
  EXPECT_EQ(jsonScalar("we\"ird"), "\"we\\\"ird\"");
}

TEST(Fingerprint, IdentifiesConfigsNotRuns) {
  auto a = tinyConfig();
  auto b = tinyConfig();
  EXPECT_EQ(configFingerprint(a), configFingerprint(b));
  b.seed += 1;
  EXPECT_NE(configFingerprint(a), configFingerprint(b));
  EXPECT_EQ(configFingerprint(a).size(), 16u);
}

/// The tentpole guarantee: a 2-scheme × 4-seed sweep produces byte-identical
/// JSONL at jobs=1 and jobs=4 (wall-clock fields suppressed — they are the
/// one intentionally nondeterministic part of a record).
TEST(SweepEngine, JsonlIsByteIdenticalAcrossJobCounts) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kEpidemic, runner::SchemeKind::kSourceDirect};
  grid.seeds = {1, 2, 3, 4};

  const auto runAt = [&grid](std::size_t jobs) {
    std::ostringstream jsonl;
    JsonlSink sink(jsonl, /*wallClock=*/false);
    SweepEngine engine(SweepOptions{jobs, /*progress=*/false});
    engine.run(grid, {&sink});
    return jsonl.str();
  };

  const std::string serial = runAt(1);
  const std::string parallel = runAt(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 8);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepEngine, ResultsArriveInJobIndexOrderWithOutputs) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.seeds = {1, 2, 3};
  SweepEngine engine(SweepOptions{3, false});
  const auto results = engine.run(grid);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job.index, i);
    EXPECT_EQ(results[i].job.config.seed, i + 1);
    EXPECT_GT(results[i].output.results.meanFreshFraction, 0.0);
    EXPECT_GE(results[i].wallSeconds, 0.0);
  }
}

TEST(TraceGroupedOrder, GroupsBySeedKeepingGridOrderInside) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kEpidemic, runner::SchemeKind::kSourceDirect};
  grid.seeds = {1, 2};
  grid.axes = {{"catalog.itemCount", {"3", "5"}}};
  // Grid order: (items, scheme, seed) with seed fastest -> seed 1 at even
  // indices, seed 2 at odd ones.
  const std::vector<std::size_t> expected{0, 2, 4, 6, 1, 3, 5, 7};
  EXPECT_EQ(traceGroupedOrder(expandGrid(grid)), expected);

  // A knob of the trace itself splits groups too.
  grid.axes = {{"trace.durationSeconds", {"86400", "172800"}}};
  grid.schemes = {runner::SchemeKind::kEpidemic};
  const std::vector<std::size_t> distinct{0, 1, 2, 3};
  EXPECT_EQ(traceGroupedOrder(expandGrid(grid)), distinct);
}

/// One generation per distinct trace per sweep: a 16-seed × 2-scheme × 2-τ
/// Infocom-like grid with warm-up needs exactly one world and one warm-up
/// trace per seed, at any worker count, and its output bytes do not depend
/// on the dispatch order.
TEST(SweepEngine, EachSeedsTracesAreGeneratedOnce) {
  SweepGrid grid;
  grid.base.trace = trace::infocomLikeConfig(3);
  grid.base.trace.duration = sim::hours(12);
  grid.base.estimatorWarmup = sim::hours(6);
  grid.base.catalog.itemCount = 3;
  grid.base.workload.queriesPerNodePerDay = 2.0;
  grid.base.cache.cachingNodesPerItem = 4;
  grid.schemes = {runner::SchemeKind::kHierarchical, runner::SchemeKind::kNoRefresh};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) grid.seeds.push_back(seed);
  grid.axes = {{"catalog.refreshPeriodSeconds", {"10800", "21600"}}};

  const auto runAt = [&grid](std::size_t jobs) {
    trace::clearTraceCache();
    std::ostringstream jsonl;
    JsonlSink sink(jsonl, /*wallClock=*/false);
    SweepEngine(SweepOptions{jobs, /*progress=*/false}).run(grid, {&sink});
    return jsonl.str();
  };

  const std::string serial = runAt(1);
  EXPECT_EQ(trace::traceCacheStats().misses, 32u);
  const std::string parallel = runAt(4);
  const auto stats = trace::traceCacheStats();
  EXPECT_EQ(stats.misses, 32u);
  EXPECT_EQ(stats.hits, 64u * 2 - 32u);
  EXPECT_EQ(std::count(parallel.begin(), parallel.end(), '\n'), 64);
  EXPECT_EQ(serial, parallel);
}

/// The `dtncache_sweep --trace=infocom --days=2` base grid with two seeds.
SweepGrid infocomTwoDayGrid() {
  SweepGrid grid;
  grid.base.trace = trace::infocomLikeConfig();
  grid.base.trace.duration = sim::days(2);
  grid.base.catalog.refreshPeriod = sim::hours(6);
  grid.base.workload.queriesPerNodePerDay = 2.0;
  grid.base.workload.queryDeadline = sim::hours(3);
  grid.seeds = {grid.base.seed, grid.base.seed + 1};
  return grid;
}

/// Everything a sweep writes: JSONL and CSV (wall clock off) and the
/// merged event trace.
struct SweepBytes {
  std::string jsonl;
  std::string csv;
  std::string trace;
};

SweepBytes runAllSinks(const SweepGrid& grid, std::size_t jobs) {
  std::ostringstream jsonl, csv, trace;
  JsonlSink jsonlSink(jsonl, /*wallClock=*/false);
  CsvSink csvSink(csv, /*wallClock=*/false);
  SweepOptions options;
  options.jobs = jobs;
  options.traceOut = &trace;
  SweepEngine(options).run(grid, {&jsonlSink, &csvSink});
  return {jsonl.str(), csv.str(), trace.str()};
}

/// The first line where two outputs differ, for a readable failure.
std::string firstDifference(const std::string& a, const std::string& b) {
  std::istringstream as(a), bs(b);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool moreA = static_cast<bool>(std::getline(as, la));
    const bool moreB = static_cast<bool>(std::getline(bs, lb));
    if (!moreA && !moreB) return "no difference";
    if (!moreA || !moreB || la != lb)
      return "line " + std::to_string(line) + ":\n  " + (moreA ? la : "<end>") +
             "\n  " + (moreB ? lb : "<end>");
  }
}

void expectSameBytes(const SweepBytes& a, const SweepBytes& b) {
  EXPECT_TRUE(a.jsonl == b.jsonl) << "JSONL " << firstDifference(a.jsonl, b.jsonl);
  EXPECT_TRUE(a.csv == b.csv) << "CSV " << firstDifference(a.csv, b.csv);
  EXPECT_TRUE(a.trace == b.trace) << "trace " << firstDifference(a.trace, b.trace);
}

/// The incremental maintenance engine (dirty-pair snapshots, skip
/// decisions, plan-cache replay) must be invisible in every sink. The grid
/// exercises skips: warm EWMA and sliding-window estimators, 10-minute
/// ticks, both maintenance modes. The full-recompute run also checks every
/// plan-cache hit against a fresh recompute (DTNCACHE_CHECK).
TEST(SweepEngine, IncrementalMaintenanceIsByteIdenticalToFullRecompute) {
  SweepGrid incremental = infocomTwoDayGrid();
  incremental.schemes = {runner::SchemeKind::kHierarchical};
  incremental.axes = {{"estimator.mode", {"ewma", "window"}},
                      {"hierarchical.maintenancePeriodSeconds", {"600"}},
                      {"hierarchical.maintenance", {"rebuild", "local-repair"}}};
  SweepGrid full = incremental;
  full.base.hierarchical.fullMaintenance = true;

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SweepBytes fast = runAllSinks(incremental, jobs);
    expectSameBytes(fast, runAllSinks(full, jobs));
    // The fast paths must have run, or the comparison shows nothing.
    EXPECT_TRUE(std::regex_search(fast.jsonl,
                                  std::regex(R"("ctr.core.maintenance.skipped": [1-9])")));
    EXPECT_TRUE(
        std::regex_search(fast.jsonl, std::regex(R"("ctr.core.plan.cache_hits": [1-9])")));
  }
}

/// With a zero prior rate, skipping never-met pairs is bit-exact, so the
/// sparse pair backend forced onto a small-N sweep (which would pick the
/// dense one) must reproduce every sink byte for byte. The estimator grid
/// drags the incremental snapshot path through both, and the forced-sparse
/// trace matrix feeds the sparse path of the once-per-run NCL selection.
TEST(SweepEngine, SparsePairBackendIsByteIdenticalToDense) {
  SweepGrid dense = infocomTwoDayGrid();
  dense.schemes = runner::allSchemes();
  dense.axes = {{"estimator.mode", {"ewma", "window"}},
                {"hierarchical.maintenancePeriodSeconds", {"900"}}};
  SweepGrid sparse = dense;
  sparse.base.trace.backend = trace::PairBackend::kSparse;
  sparse.base.estimator.backend = trace::PairBackend::kSparse;
  ASSERT_FALSE(trace::generate(dense.base.trace).rates.isSparse());
  ASSERT_TRUE(trace::generate(sparse.base.trace).rates.isSparse());

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SweepBytes forced = runAllSinks(sparse, jobs);
    expectSameBytes(runAllSinks(dense, jobs), forced);
    EXPECT_FALSE(forced.trace.empty());
  }
}

TEST(CsvSinkTest, NoNanCellsEvenWithZeroQueries) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.base.workload.queriesPerNodePerDay = 0.0;  // every query ratio is 0/0
  std::ostringstream csv;
  CsvSink sink(csv);
  SweepEngine engine(SweepOptions{1, false});
  engine.run(grid, {&sink});
  const std::string text = csv.str();
  EXPECT_NE(text.find("valid_ratio"), std::string::npos);
  // Check whole cells, not substrings: column names may legitimately
  // contain "nan" (ctr.core.maintenance.runs).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) {
      EXPECT_NE(cell, "nan") << line;
      EXPECT_NE(cell, "-nan") << line;
      EXPECT_NE(cell, "inf") << line;
      EXPECT_NE(cell, "-inf") << line;
    }
  }
}

TEST(ReplicateOnEngine, MatchesAnyJobsCount) {
  auto cfg = tinyConfig();
  cfg.scheme = runner::SchemeKind::kEpidemic;
  const auto serial = runner::runReplicated(cfg, 3, 1);
  const auto parallel = runner::runReplicated(cfg, 3, 3);
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_DOUBLE_EQ(serial.meanFresh.mean(), parallel.meanFresh.mean());
  EXPECT_DOUBLE_EQ(serial.meanFresh.stddev(), parallel.meanFresh.stddev());
  EXPECT_DOUBLE_EQ(serial.refreshMegabytes.mean(), parallel.refreshMegabytes.mean());
  EXPECT_EQ(serial.last.results.queries.issued, parallel.last.results.queries.issued);
}

}  // namespace
}  // namespace dtncache::sweep
