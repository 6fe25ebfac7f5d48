#include "sweep/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
