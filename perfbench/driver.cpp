/// \file driver.cpp
/// The benchmark driver: runs one workload as closed batch passes through
/// the public entry points (sweep::SweepEngine, runner::runExperiment),
/// checks every result, and prints the metrics as JSON.
///
///   perfbench_driver --workload paper_grid|reality_churn|mobility_50k
///                    --seed N --seconds S --trace 0|1
///                    [--commit REV] [--source-digest HEX] [--spans PATH]
///                    [--smoke] [--corrupt-row K]
///
/// A pass runs the workload's fixed experiment list once, from a cold trace
/// memo. --trace 0 runs one pass and prints the end-to-end metrics (run.py
/// repeats such processes for `--seconds`). --trace 1 runs one untraced
/// pass, then traced passes (perfbench::runTracedExperiment, one span per
/// layer call) each followed by an untraced pass until those pairs have
/// taken `--seconds`, and prints the per-layer metrics; every pass must
/// reproduce the first pass's results digest.
///
/// --smoke shrinks every workload for the benchmark's own tests;
/// --corrupt-row K damages result row K of every pass after it ran, so the
/// tests can see the output checks count it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"
#include "sweep/thread_pool.hpp"
#include "trace/mobility.hpp"
#include "trace/trace_cache.hpp"
#include "traced_experiment.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace dtncache;
using runner::ExperimentConfig;
using runner::SchemeKind;

constexpr std::size_t kGridWorkers = 4;
constexpr int kSetupSamples = 11;
constexpr double kSetupSampleSeconds = 0.05;

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::vector<sweep::SweepJob> jobs;  ///< one pass, in grid order
  std::size_t workers = 1;            ///< 1: back to back in the calling thread
};

ExperimentConfig infocomPreset(std::uint64_t seed) {
  ExperimentConfig c;
  c.trace = trace::infocomLikeConfig(seed);
  c.catalog.itemCount = 10;
  c.catalog.refreshPeriod = sim::hours(6);
  c.workload.queriesPerNodePerDay = 2.0;
  c.workload.queryDeadline = sim::hours(3);
  c.cache.cachingNodesPerItem = 8;
  c.seed = seed;
  return c;
}

ExperimentConfig realityPreset(std::uint64_t seed) {
  ExperimentConfig c;
  c.trace = trace::realityLikeConfig(seed);
  c.catalog.itemCount = 10;
  c.catalog.refreshPeriod = sim::days(2);
  c.workload.queriesPerNodePerDay = 1.0;
  c.workload.queryDeadline = sim::days(1);
  c.cache.cachingNodesPerItem = 8;
  c.seed = seed;
  return c;
}

// The large-N shape of bench/common.hpp::mobilityExperimentConfig.
ExperimentConfig mobilityPreset(std::size_t nodes, std::uint64_t seed) {
  ExperimentConfig c;
  c.trace = trace::mobilityConfig(nodes, seed);
  c.trace.duration = sim::days(2);
  c.catalog.itemCount = 10;
  c.catalog.refreshPeriod = sim::hours(12);
  c.workload.queriesPerNodePerDay = 0.2;
  c.workload.queryDeadline = sim::hours(12);
  c.cache.cachingNodesPerItem = 8;
  c.estimatorWarmup = sim::days(2);
  c.seed = seed;
  return c;
}

std::vector<std::uint64_t> seedBlock(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = base + i;
  return seeds;
}

/// Build one pass's job list: the whole of the benchmark's set-up.
Workload makeWorkload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  if (name == "paper_grid") {
    // All 7 schemes x tau in {3 h, 6 h, 12 h} x 16 seeds.
    sweep::SweepGrid grid;
    grid.base = infocomPreset(seed);
    grid.schemes = runner::allSchemes();
    grid.seeds = seedBlock(seed, smoke ? 2 : 16);
    grid.axes = {{"catalog.refreshPeriodSeconds", {"10800", "21600", "43200"}}};
    w.jobs = sweep::expandGrid(grid);
    w.workers = kGridWorkers;
  } else if (name == "reality_churn") {
    // Hierarchical under churn, EWMA rates, 1 h maintenance:
    // theta in {0.5, 0.7, 0.9} x tau in {1 d, 2 d} x 20 seeds.
    sweep::SweepGrid grid;
    grid.base = realityPreset(seed);
    grid.base.scheme = SchemeKind::kHierarchical;
    grid.base.churnEnabled = true;
    grid.base.estimator.mode = trace::EstimatorMode::kEwma;
    grid.base.hierarchical.maintenancePeriod = sim::hours(1);
    grid.seeds = seedBlock(seed, smoke ? 2 : 20);
    grid.axes = {{"hierarchical.replication.theta",
                  smoke ? std::vector<std::string>{"0.5", "0.9"}
                        : std::vector<std::string>{"0.5", "0.7", "0.9"}},
                 {"catalog.refreshPeriodSeconds",
                  smoke ? std::vector<std::string>{"86400"}
                        : std::vector<std::string>{"86400", "172800"}}};
    w.jobs = sweep::expandGrid(grid);
    w.workers = kGridWorkers;
  } else if (name == "mobility_50k") {
    // Distinct seeds back to back: every experiment generates its trace.
    for (const std::uint64_t s : seedBlock(seed, smoke ? 2 : 10)) {
      sweep::SweepJob job;
      job.index = w.jobs.size();
      job.config = mobilityPreset(smoke ? 2000 : 50000, s);
      w.jobs.push_back(std::move(job));
    }
    w.workers = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---- passes ------------------------------------------------------------------

/// One experiment of a pass; `result` is empty when the experiment threw.
struct Row {
  std::optional<sweep::JobResult> result;
  std::vector<Span> spans;  ///< traced passes only
  std::size_t observedPairs = 0;
};

struct Pass {
  std::vector<Row> rows;
  double wallSeconds = 0.0;
  trace::TraceCacheStats memo;
};

/// Untraced: the grids go through SweepEngine (a throwing job aborts the
/// whole sweep, so every row of that pass counts as failed); mobility calls
/// runExperiment back to back.
Pass runPass(const Workload& w) {
  trace::clearTraceCache();
  Pass pass;
  pass.rows.resize(w.jobs.size());
  std::vector<sweep::SweepJob> jobs = w.jobs;
  const double start = steadySeconds();
  if (w.workers > 1) {
    try {
      sweep::SweepEngine engine(sweep::SweepOptions{w.workers, /*progress=*/false});
      std::vector<sweep::JobResult> results = engine.runJobs(std::move(jobs));
      for (std::size_t i = 0; i < results.size(); ++i)
        pass.rows[i].result = std::move(results[i]);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: sweep failed: " << e.what() << "\n";
    }
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        const double t0 = steadySeconds();
        runner::ExperimentOutput out = runner::runExperiment(jobs[i].config);
        pass.rows[i].result =
            sweep::JobResult{std::move(jobs[i]), std::move(out), steadySeconds() - t0};
      } catch (const std::exception& e) {
        std::cerr << "perfbench: experiment " << i << " failed: " << e.what() << "\n";
      }
    }
  }
  pass.wallSeconds = steadySeconds() - start;
  pass.memo = trace::traceCacheStats();
  return pass;
}

Row tracedRow(const sweep::SweepJob& job) {
  Row row;
  try {
    TracedOutput traced = runTracedExperiment(job.config);
    const double wall = traced.spans.front().end - traced.spans.front().start;
    row.result = sweep::JobResult{job, std::move(traced.output), wall};
    row.spans = std::move(traced.spans);
    row.observedPairs = traced.observedPairs;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: traced experiment " << job.index << " failed: " << e.what()
              << "\n";
  }
  return row;
}

/// Traced: the same job list on the same worker count, each experiment
/// assembled by runTracedExperiment.
Pass runTracedPass(const Workload& w) {
  trace::clearTraceCache();
  Pass pass;
  const double start = steadySeconds();
  if (w.workers > 1) {
    sweep::ThreadPool pool(w.workers);
    std::vector<std::future<Row>> futures;
    futures.reserve(w.jobs.size());
    for (const sweep::SweepJob& job : w.jobs)
      futures.push_back(pool.submit([&job] { return tracedRow(job); }));
    for (auto& f : futures) pass.rows.push_back(f.get());
  } else {
    for (const sweep::SweepJob& job : w.jobs) pass.rows.push_back(tracedRow(job));
  }
  pass.wallSeconds = steadySeconds() - start;
  pass.memo = trace::traceCacheStats();
  return pass;
}

// ---- output checks -----------------------------------------------------------

std::uint64_t counter(const runner::ExperimentOutput& out, const std::string& name) {
  for (const auto& [key, value] : out.counters)
    if (key == name) return value;
  return 0;
}

bool inUnit(double x) { return x >= 0.0 && x <= 1.0; }

bool rowValid(const runner::ExperimentOutput& out) {
  const auto& r = out.results;
  if (!inUnit(r.meanFreshFraction) || !inUnit(r.finalFreshFraction) ||
      !inUnit(r.meanValidFraction))
    return false;
  const std::uint64_t contacts = out.traceStats.contactCount;
  const std::uint64_t dropped =
      counter(out, "net.contact.suppressed") + counter(out, "net.contact.lost");
  return dropped <= contacts && counter(out, "net.contact.delivered") == contacts - dropped;
}

/// Marks failed rows; on paper_grid also fails the Hierarchical row of any
/// (tau, seed) cell that breaks the paper's freshness order.
std::vector<bool> checkRows(const std::string& workload, const Pass& pass) {
  std::vector<bool> failed(pass.rows.size());
  for (std::size_t i = 0; i < pass.rows.size(); ++i)
    failed[i] = !pass.rows[i].result || !rowValid(pass.rows[i].result->output);
  if (workload != "paper_grid") return failed;

  // (tau, seed) -> scheme -> (row, fresh fraction)
  std::map<std::pair<std::string, std::uint64_t>,
           std::map<std::string, std::pair<std::size_t, double>>>
      cells;
  for (std::size_t i = 0; i < pass.rows.size(); ++i) {
    if (!pass.rows[i].result) continue;
    const sweep::JobResult& r = *pass.rows[i].result;
    cells[{r.job.overrides.at(0).second, r.job.config.seed}][r.output.scheme] = {
        i, r.output.results.meanFreshFraction};
  }
  for (const auto& [cell, schemes] : cells) {
    const auto fresh = [&](const char* s) {
      const auto it = schemes.find(s);
      return it == schemes.end() ? -1.0 : it->second.second;
    };
    const auto h = schemes.find("Hierarchical");
    if (h == schemes.end()) continue;  // already failed as a missing row
    const double ours = h->second.second;
    if (!(ours > fresh("NoRefresh") && ours > fresh("SourceDirect") &&
          fresh("Flooding") >= ours))
      failed[h->second.first] = true;
  }
  return failed;
}

/// FNV-1a over every deterministic result column and counter of every row,
/// in job order — the sweep sinks' record minus its wall-clock fields, plus
/// the kernel's event counts.
std::string resultsDigest(const Pass& pass) {
  std::string text;
  for (const Row& row : pass.rows) {
    if (!row.result) {
      text += "failed\n";
      continue;
    }
    text += sweep::renderJsonlLine(sweep::recordFields(*row.result, /*wallClock=*/false));
    text += "events " + std::to_string(row.result->output.eventsProcessed) + " peak " +
            std::to_string(row.result->output.peakPendingEvents) + "\n";
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sweep::fnv1a64(text)));
  return hex;
}

// ---- statistics and host ----------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
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
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Metrics in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string metricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += jsonString(metrics[i].first) + ": {\"value\": " + num(metrics[i].second.first) +
           ", \"unit\": " + jsonString(metrics[i].second.second) + "}";
  }
  return out + "}";
}

// ---- metrics -------------------------------------------------------------------

Metrics endToEnd(double setup, const Pass& pass) {
  double done = 0.0;
  double events = 0.0;
  std::vector<double> walls;
  for (const Row& row : pass.rows) {
    if (!row.result) continue;
    done += 1.0;
    walls.push_back(row.result->wallSeconds);
    events += static_cast<double>(row.result->output.eventsProcessed);
  }
  return {
      {"setup_s", {setup, "s"}},
      {"experiments_per_s", {done / pass.wallSeconds, "1/s"}},
      {"experiment_wall_s_p50", {quantile(walls, 0.5), "s"}},
      {"experiment_wall_s_p90", {quantile(walls, 0.9), "s"}},
      {"events_per_s", {events / pass.wallSeconds, "1/s"}},
      {"peak_rss_mb", {peakRssMb(), "MB"}},
  };
}

/// `untraced`: the untraced passes that ran alongside the traced ones.
Metrics perLayer(std::span<const Pass> untraced, const std::vector<Pass>& traced,
                 std::size_t workers) {
  std::map<std::string, double> self;  // span name -> summed self time
  std::map<std::string, double> ctr;   // counter name -> sum
  double rows = 0, maintenance = 0, contacts = 0, pairs = 0, events = 0, peak = 0;
  double shards = 0, processed = 0, boring = 0, stolen = 0, barriers = 0;
  double memoHits = 0, memoLookups = 0, tracedWall = 0;
  for (const Pass& pass : traced) {
    memoHits += static_cast<double>(pass.memo.hits);
    memoLookups += static_cast<double>(pass.memo.hits + pass.memo.misses);
    for (const Row& row : pass.rows) {
      if (!row.result) continue;
      const runner::ExperimentOutput& out = row.result->output;
      rows += 1;
      tracedWall += row.result->wallSeconds;
      std::vector<double> selfTime(row.spans.size());
      for (std::size_t i = 0; i < row.spans.size(); ++i) {
        const Span& s = row.spans[i];
        selfTime[i] += s.end - s.start;
        if (s.parent >= 0) selfTime[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
      for (std::size_t i = 0; i < row.spans.size(); ++i) self[row.spans[i].name] += selfTime[i];
      for (const auto& t : out.timers)
        if (t.name == "core.maintenance") maintenance += t.seconds;
      for (const auto& [name, value] : out.counters) ctr[name] += static_cast<double>(value);
      contacts += static_cast<double>(out.traceStats.contactCount);
      pairs += static_cast<double>(row.observedPairs);
      events += static_cast<double>(out.eventsProcessed);
      peak += static_cast<double>(out.peakPendingEvents);
      const runner::ShardStats& s = out.shardStats;
      shards += static_cast<double>(s.shards);
      processed += static_cast<double>(s.contactsProcessed);
      boring += static_cast<double>(s.boringContacts + s.stolenContacts);
      stolen += static_cast<double>(s.stolenContacts);
      barriers += static_cast<double>(s.barrierWaits);
    }
  }
  double refWall = 0, refRows = 0, refPassWall = 0;
  for (const Pass& pass : untraced) {
    refPassWall += pass.wallSeconds;
    for (const Row& row : pass.rows) {
      if (!row.result) continue;
      refWall += row.result->wallSeconds;
      refRows += 1;
    }
  }
  const auto mean = [&](double sum) { return rows > 0 ? sum / rows : 0.0; };
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  const double pushes =
      ctr["cache.push.delivered"] + ctr["cache.push.noop"] + ctr["cache.push.denied"];
  return {
      {"trace.generate_s", {mean(self["trace.generate"]), "s"}},
      {"trace.warmup_s", {mean(self["trace.warmup"]), "s"}},
      {"trace.contacts", {mean(contacts), "count"}},
      {"trace.observed_pairs", {mean(pairs), "count"}},
      {"trace.memo_hit_ratio", {share(memoHits, memoLookups), "ratio"}},
      {"cache.ncl_select_s", {mean(self["cache.ncl_select"]), "s"}},
      {"cache.push_delivered", {mean(ctr["cache.push.delivered"]), "count"}},
      {"cache.push_noop", {mean(ctr["cache.push.noop"]), "count"}},
      {"cache.push_denied", {mean(ctr["cache.push.denied"]), "count"}},
      {"cache.push_useful_ratio", {share(ctr["cache.push.delivered"], pushes), "ratio"}},
      {"cache.query_local_hit", {mean(ctr["cache.query.local_hit"]), "count"}},
      {"core.maintenance_s", {mean(maintenance), "s"}},
      {"core.maintenance_runs", {mean(ctr["core.maintenance.runs"]), "count"}},
      {"core.maintenance_skipped", {mean(ctr["core.maintenance.skipped"]), "count"}},
      {"core.plan_cache_hits", {mean(ctr["core.plan.cache_hits"]), "count"}},
      {"core.plan_helpers", {mean(ctr["core.plan.helpers"]), "count"}},
      {"core.plan_unmet", {mean(ctr["core.plan.unmet"]), "count"}},
      {"core.churn_repairs", {mean(ctr["core.churn.repairs"]), "count"}},
      {"sim.replay_s", {mean(self["sim.run"] - maintenance), "s"}},
      {"sim.events", {mean(events), "count"}},
      {"sim.peak_pending", {mean(peak), "count"}},
      {"net.contacts_delivered", {mean(ctr["net.contact.delivered"]), "count"}},
      {"net.replay_floor_s", {mean(self["net.replay_floor"]), "s"}},
      {"runner.start_s", {mean(self["runner.start"]), "s"}},
      {"runner.shards", {mean(shards), "count"}},
      {"runner.boring_fraction", {share(boring, processed), "ratio"}},
      {"runner.stolen_fraction", {share(stolen, processed), "ratio"}},
      {"runner.barrier_waits", {mean(barriers), "count"}},
      {"metrics.finalize_s", {mean(self["metrics.finalize"]), "s"}},
      {"sweep.workers", {static_cast<double>(workers), "count"}},
      {"sweep.worker_busy_fraction",
       {share(refWall, static_cast<double>(workers) * refPassWall), "ratio"}},
      {"unattributed_s", {mean(self["experiment"]), "s"}},
      {"tracing_overhead_s",
       {mean(tracedWall) - (refRows > 0 ? refWall / refRows : 0.0), "s"}},
  };
}

void writeSpans(const std::string& path, const std::vector<Pass>& traced) {
  std::ofstream out(path);
  std::size_t experiment = 0;
  for (const Pass& pass : traced) {
    for (const Row& row : pass.rows) {
      for (std::size_t i = 0; i < row.spans.size(); ++i) {
        const Span& s = row.spans[i];
        out << "{\"experiment\": " << experiment << ", \"id\": " << i
            << ", \"parent\": " << s.parent << ", \"name\": " << jsonString(s.name)
            << ", \"start\": " << num(s.start) << ", \"end\": " << num(s.end) << "}\n";
      }
      ++experiment;
    }
  }
  if (!out) std::cerr << "perfbench: could not write spans to " << path << "\n";
}

std::string passWalls(const std::vector<Pass>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i)
    out += (i > 0 ? ", " : "") + num(passes[i].wallSeconds);
  return out + "]";
}

// ---- main ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
  std::string spansPath;
  bool smoke = false;
  long corruptRow = -1;
};

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
      haveSeed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value);
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--source-digest") {
      o.sourceDigest = value;
    } else if (arg == "--spans") {
      o.spansPath = value;
    } else if (arg == "--corrupt-row") {
      o.corruptRow = std::stol(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !haveSeed || o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1))
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1");
  return o;
}

/// Refusals: anything that would change the program being measured.
std::string refusal(std::size_t cpus) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
  std::string overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("DTNCACHE_", 0) == 0) overrides += " " + entry.substr(0, entry.find('='));
  }
  if (!overrides.empty()) return "DTNCACHE_* overrides are set:" + overrides;
  if (cpus < kGridWorkers)
    return "needs " + std::to_string(kGridWorkers) + " usable CPUs for the sweep workers, has " +
           std::to_string(cpus);
  return {};
}

int run(const Options& opt) {
  const std::size_t cpus = usableCpus();
  if (const std::string why = refusal(cpus); !why.empty()) {
    std::cerr << "perfbench: refusing to run: " << why << "\n";
    return 2;
  }

  // Set-up: build the configs and expand the grid. One sample repeats the
  // set-up until it has taken kSetupSampleSeconds (the mobility list takes
  // about a microsecond) and reports the time per set-up.
  std::vector<double> setups;
  Workload w;
  for (int k = 0; k < kSetupSamples; ++k) {
    std::size_t repeats = 0;
    const double t0 = steadySeconds();
    double batch = 0.0;
    do {
      w = makeWorkload(opt.workload, opt.seed, opt.smoke);
      ++repeats;
      batch = steadySeconds() - t0;
    } while (batch < kSetupSampleSeconds);
    setups.push_back(batch / static_cast<double>(repeats));
  }
  const double setup = quantile(setups, 0.5);

  // --corrupt-row damages the same row of every pass, as a deterministic
  // wrong result would: each pass then counts exactly that row as failed.
  const auto corrupt = [&](Pass pass) {
    const auto k = static_cast<std::size_t>(opt.corruptRow);
    if (opt.corruptRow >= 0 && k < pass.rows.size() && pass.rows[k].result)
      pass.rows[k].result->output.results.meanFreshFraction = 1.5;
    return pass;
  };
  std::vector<Pass> passes{corrupt(runPass(w))};  // untraced
  std::vector<Pass> traced;
  if (opt.trace == 1) {
    // The first untraced pass also warms the heap; each traced pass is
    // followed by an untraced one, and the overhead compares those.
    double elapsed = 0.0;
    do {
      traced.push_back(corrupt(runTracedPass(w)));
      passes.push_back(corrupt(runPass(w)));
      elapsed += traced.back().wallSeconds + passes.back().wallSeconds;
    } while (elapsed < opt.seconds);
  }

  // Checks: per-row validity, and every pass reproducing the first digest.
  const std::string digest = resultsDigest(passes[0]);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const Pass& pass) {
    const std::vector<bool> bad = checkRows(opt.workload, pass);
    const bool drifted = resultsDigest(pass) != digest;
    if (drifted) std::cerr << "perfbench: a pass's results digest differs from the first pass's\n";
    attempted += bad.size();
    for (const bool b : bad) failed += (b || drifted) ? 1 : 0;
  };
  for (const Pass& pass : passes) check(pass);
  for (const Pass& pass : traced) check(pass);

  double pushDelivered = 0;
  double planUnmet = 0;
  for (const Row& row : passes[0].rows) {
    if (!row.result) continue;
    pushDelivered += static_cast<double>(counter(row.result->output, "cache.push.delivered"));
    planUnmet += static_cast<double>(counter(row.result->output, "core.plan.unmet"));
  }
  const bool inert = pushDelivered == 0;
  std::ostringstream health;
  if (inert)
    health << "protocol inert: cache.push.delivered = 0 over " << passes[0].rows.size()
           << " experiments (core.plan.unmet total " << num(planUnmet) << ")";
  else
    health << "ok: cache.push.delivered = " << num(pushDelivered) << " over "
           << passes[0].rows.size() << " experiments";
  std::cout << "health: " << opt.workload << ": " << health.str() << "\n";

  const Metrics metrics =
      opt.trace == 1 ? perLayer(std::span(passes).subspan(1), traced, w.workers)
                     : endToEnd(setup, passes[0]);
  if (opt.trace == 1 && !opt.spansPath.empty()) writeSpans(opt.spansPath, traced);

  const double failFraction =
      static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted));
  std::cout << "{\"report\": {\"workload\": " << jsonString(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
            << ", \"smoke\": " << (opt.smoke ? "true" : "false")
            << ", \"experiments_per_pass\": " << w.jobs.size()
            << ", \"workers\": " << w.workers << ", \"untraced_passes\": " << passes.size()
            << ", \"traced_passes\": " << traced.size()
            << ", \"pass_wall_s\": " << passWalls(passes)
            << ", \"traced_pass_wall_s\": " << passWalls(traced)
            << ", \"results_digest\": " << jsonString(digest)
            << ", \"fail_fraction\": {\"value\": " << num(failFraction)
            << ", \"unit\": \"ratio\"}, \"inert\": " << (inert ? "true" : "false")
            << ", \"host\": {\"nproc\": " << cpus << ", \"cpu\": " << jsonString(cpuModel())
            << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
            << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
            << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
            << ", \"commit\": " << jsonString(opt.commit)
            << ", \"source_digest\": " << jsonString(opt.sourceDigest) << "}}}\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
