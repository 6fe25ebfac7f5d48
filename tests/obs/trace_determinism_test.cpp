#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/tracer.hpp"
#include "runner/experiment.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"

/// End-to-end contracts of the observability layer:
///   - a sweep's merged event trace is byte-identical at any --jobs count
///     (per-job tracers, flushed in job-index order);
///   - counters are deterministic and identical across repeated runs;
///   - running with tracing enabled does not change simulation results;
///   - result sinks carry the full pre-registered ctr.* column set on
///     every row, whatever the scheme.

namespace dtncache::sweep {
namespace {

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

SweepGrid tinyGrid() {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.schemes = {runner::SchemeKind::kHierarchical, runner::SchemeKind::kEpidemic};
  grid.seeds = {1, 2};
  return grid;
}

std::string runTraced(std::size_t jobs, obs::KindMask filter = obs::kAllKinds) {
  std::ostringstream trace;
  SweepOptions options;
  options.jobs = jobs;
  options.traceOut = &trace;
  options.traceFilter = filter;
  SweepEngine engine(options);
  engine.run(tinyGrid());
  return trace.str();
}

TEST(TraceDeterminism, MergedTraceIsByteIdenticalAcrossJobCounts) {
  const std::string serial = runTraced(1);
  const std::string parallel = runTraced(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(TraceDeterminism, TraceHasJobLifecycleInIndexOrder) {
  const std::string text = runTraced(4, obs::kindBit(obs::EventKind::kJobStart) |
                                            obs::kindBit(obs::EventKind::kJobDone));
  // 4 jobs × (trace_filter record + job_start + job_done), strictly
  // grouped per job because buffers are flushed whole, in job-index order.
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  for (std::size_t job = 0; job < 4; ++job) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"kind\": \"trace_filter\", \"kept\": \"job_start,job_done\""),
              std::string::npos)
        << line;
    for (const char* kind : {"job_start", "job_done"}) {
      ASSERT_TRUE(std::getline(lines, line));
      EXPECT_NE(line.find(std::string("\"kind\": \"") + kind + "\""), std::string::npos)
          << line;
      EXPECT_NE(line.find("\"job\": " + std::to_string(job)), std::string::npos) << line;
    }
    count += 3;
  }
  EXPECT_FALSE(std::getline(lines, line)) << line;
  EXPECT_EQ(count, 12u);
}

TEST(TraceDeterminism, FilterKeepsOnlyRequestedKinds) {
  const std::string text = runTraced(2, obs::kindBit(obs::EventKind::kVersionBump));
  EXPECT_FALSE(text.empty());
  // Besides the requested kind, each run carries exactly one record naming
  // the kinds its filter kept.
  std::istringstream lines(text);
  std::string line;
  std::size_t records = 0;
  std::size_t bumps = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"kind\": \"trace_filter\"") != std::string::npos) {
      EXPECT_NE(line.find("\"kept\": \"version_bump\"}"), std::string::npos) << line;
      ++records;
      continue;
    }
    EXPECT_NE(line.find("\"kind\": \"version_bump\""), std::string::npos) << line;
    ++bumps;
  }
  EXPECT_EQ(records, 4u);  // 2 schemes × 2 seeds
  EXPECT_GT(bumps, 0u);
}

TEST(TraceDeterminism, UnfilteredTraceHasNoFilterRecord) {
  EXPECT_EQ(runTraced(2).find("trace_filter"), std::string::npos);
}

TEST(TraceDeterminism, SimCliPathTracerCollectsEvents) {
  // The single-run path: a caller-owned tracer handed in via the config.
  obs::Tracer tracer("single");
  auto cfg = tinyConfig();
  cfg.tracer = &tracer;
  const auto out = runner::runExperiment(cfg);
  EXPECT_GT(tracer.eventCount(), 0u);
  EXPECT_NE(tracer.buffer().find("\"kind\": \"contact\""), std::string::npos);
  EXPECT_NE(tracer.buffer().find("\"kind\": \"plan\""), std::string::npos);

  // Tracing must not perturb the simulation itself.
  auto plain = tinyConfig();
  const auto reference = runner::runExperiment(plain);
  EXPECT_EQ(out.results.queries.issued, reference.results.queries.issued);
  EXPECT_DOUBLE_EQ(out.results.meanFreshFraction, reference.results.meanFreshFraction);
  EXPECT_EQ(out.counters, reference.counters);
}

TEST(ObservabilityCounters, DeterministicAndConsistentWithScheme) {
  auto cfg = tinyConfig();
  const auto a = runner::runExperiment(cfg);
  const auto b = runner::runExperiment(cfg);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_FALSE(a.counters.empty());
  EXPECT_TRUE(std::is_sorted(a.counters.begin(), a.counters.end()));

  auto find = [&a](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : a.counters)
      if (key == name) return value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_GT(find("net.contact.delivered"), 0u);
  EXPECT_GT(find("cache.push.delivered"), 0u);
  EXPECT_GT(find("core.maintenance.runs"), 0u);
  EXPECT_EQ(find("core.churn.repairs"), 0u);  // no churn configured
}

TEST(ObservabilityCounters, BaselineRowsCarryTheSameColumnSet) {
  auto cfg = tinyConfig();
  const auto ours = runner::runExperiment(cfg);
  cfg.scheme = runner::SchemeKind::kEpidemic;
  const auto baseline = runner::runExperiment(cfg);
  ASSERT_EQ(ours.counters.size(), baseline.counters.size());
  for (std::size_t i = 0; i < ours.counters.size(); ++i)
    EXPECT_EQ(ours.counters[i].first, baseline.counters[i].first);
}

TEST(ObservabilityCounters, SinksRenderCounterColumns) {
  SweepGrid grid;
  grid.base = tinyConfig();
  std::ostringstream csv, jsonl;
  CsvSink csvSink(csv, /*wallClock=*/false);
  JsonlSink jsonlSink(jsonl, /*wallClock=*/false);
  SweepEngine engine(SweepOptions{1, false});
  engine.run(grid, {&csvSink, &jsonlSink});
  EXPECT_NE(csv.str().find("ctr.cache.push.delivered"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"ctr.net.contact.delivered\":"), std::string::npos);
  // Timers are wall-clock; with wallClock off they must not appear.
  EXPECT_EQ(csv.str().find("timer."), std::string::npos);
  EXPECT_EQ(jsonl.str().find("wall_ms"), std::string::npos);
}

}  // namespace
}  // namespace dtncache::sweep
