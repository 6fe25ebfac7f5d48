/// \file dtncache_sweep.cpp
/// Parameter-grid experiment driver on the parallel sweep engine.
///
/// Expands scheme × seed × knob axes over a base config (a config_io JSON
/// file or a trace preset), runs the grid on a thread pool, and emits one
/// JSONL record per run plus a CSV summary — deterministically ordered, so
/// `--jobs 8` output is byte-identical to `--jobs 1` apart from wall-clock
/// fields. Progress/ETA and a closing trace-memo line ("sweep: trace memo:
/// G generated, R reused") go to stderr, never into the result files.
///
/// Examples:
///   dtncache_sweep --trace=infocom --schemes=all --seeds=5 --csv=-
///   dtncache_sweep --config=run.json --seeds=8 --jobs=8 --jsonl=out.jsonl
///   dtncache_sweep --trace=reality --schemes=hierarchical --seeds=3 --csv=theta.csv
///     --sweep="hierarchical.replication.theta=0.5,0.7,0.9;catalog.refreshPeriodSeconds=43200,86400"
///   dtncache_sweep --trace=infocom --list   # print the expanded plan, run nothing
///
/// Multi-process modes (see docs/sweep.md): spool workers lease jobs from a
/// shared fragment store, and the merge is byte-identical to a
/// single-process run of the same grid. Re-running workers on a partly
/// complete store resumes it.
///   dtncache_sweep --trace=infocom --seeds=8 --store=S --spool-init
///   dtncache_sweep --store=S --spool-worker     # any number, any host w/ S mounted
///   dtncache_sweep --store=S --merge --csv=out.csv

#include <cctype>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "runner/args.hpp"
#include "runner/config_io.hpp"
#include "sweep/distributed.hpp"
#include "sweep/fragment_store.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/work_unit.hpp"
#include "trace/mobility.hpp"
#include "trace/trace_cache.hpp"
#include "sweep/sweep_engine.hpp"
#include "sweep/thread_pool.hpp"

using namespace dtncache;

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

std::vector<runner::SchemeKind> parseSchemes(const std::string& spec,
                                             std::vector<std::string>& errors) {
  if (spec == "all") return runner::allSchemes();
  std::vector<runner::SchemeKind> schemes;
  for (const auto& name : split(spec, ',')) {
    bool found = false;
    for (const auto kind : runner::allSchemes()) {
      std::string lower = runner::schemeName(kind);
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower == name) {
        schemes.push_back(kind);
        found = true;
        break;
      }
    }
    if (!found) errors.push_back("unknown scheme '" + name + "'");
  }
  return schemes;
}

/// "key=v1,v2;key2=w1" → axes. The '=' split is on the first '=' only.
std::vector<sweep::SweepAxis> parseAxes(const std::string& spec,
                                        std::vector<std::string>& errors) {
  std::vector<sweep::SweepAxis> axes;
  for (const auto& clause : split(spec, ';')) {
    const auto eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      errors.push_back("sweep clause '" + clause + "' is not key=v1,v2,...");
      continue;
    }
    sweep::SweepAxis axis;
    axis.key = clause.substr(0, eq);
    axis.values = split(clause.substr(eq + 1), ',');
    if (axis.values.empty()) {
      errors.push_back("sweep axis '" + axis.key + "' has no values");
      continue;
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

/// "-" means stdout; otherwise open the file (or die).
std::ostream* openSink(const std::string& path, std::ofstream& file) {
  if (path == "-") return &std::cout;
  file.open(path);
  if (!file.good()) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
  return &file;
}

/// How often the trace memo generated vs reused a trace in this process.
/// Stderr only: the counts depend on the worker count and timing.
void printTraceMemo() {
  const trace::TraceCacheStats memo = trace::traceCacheStats();
  std::cerr << "sweep: trace memo: " << memo.misses << " generated, " << memo.hits
            << " reused\n";
}

int runSweep(int argc, char** argv) {
  runner::ArgParser args(argc, argv);

  const std::string configFile =
      args.getString("--config", "", "base config JSON (config_io format)");
  const std::string traceName = args.getString(
      "--trace", "infocom",
      "preset base when no --config: reality | infocom | mobility");
  const auto nodesFlag = args.getInt(
      "--nodes", 0, "node count for the mobility preset (0 = preset default)");
  const double days =
      args.getDouble("--days", 0.0, "override trace duration in days (0 = preset)");
  const std::string schemeSpec = args.getString(
      "--schemes", "", "comma list of schemes, or 'all' (default: base config's)");
  const auto seedCount =
      args.getInt("--seeds", 1, "seed axis: base seed .. base seed + N - 1");
  const std::string sweepSpec = args.getString(
      "--sweep", "", "knob axes: \"key=v1,v2[;key2=w1,w2]\" (config_io dotted keys)");
  const auto jobs = args.getInt("--jobs", 0, "worker threads (0 = hardware cores)");
  const std::string jsonlPath =
      args.getString("--jsonl", "", "write one JSONL record per run ('-' = stdout)");
  const std::string csvPath =
      args.getString("--csv", "-", "write the CSV summary ('-' = stdout, '' = off)");
  const bool noWall =
      args.getBool("--no-wall", "omit wall-clock fields (byte-stable output)");
  const std::string traceOutPath = args.getString(
      "--trace-out", "", "write the merged JSONL event trace here ('-' = stdout)");
  const std::string traceFilterSpec = args.getString(
      "--trace-filter", "", "comma list of event kinds to keep (default: all)");
  const bool quiet = args.getBool("--quiet", "suppress progress/ETA on stderr");
  const bool list = args.getBool("--list", "print the expanded job plan and exit");
  const std::string storeDir = args.getString(
      "--store", "", "fragment store directory (spool and merge modes)");
  const bool spoolInitMode = args.getBool(
      "--spool-init", "write the manifest into --store for spool workers, then exit");
  const bool spoolWorkerMode = args.getBool(
      "--spool-worker", "lease and run jobs from --store (shared dir, no networking)");
  const bool mergeMode = args.getBool(
      "--merge", "merge a complete --store into --jsonl/--csv/--trace-out and exit");
  const double leaseTimeout = args.getDouble(
      "--lease-timeout", 600.0, "seconds before a spool worker breaks a lease");

  if (args.helpRequested()) {
    std::cout << args.helpText("dtncache_sweep");
    return 0;
  }
  std::vector<std::string> errors = args.errors();
  if (seedCount < 1) errors.push_back("--seeds must be >= 1");
  if (jobs < 0) errors.push_back("--jobs must be >= 0");
  const int modeCount = static_cast<int>(spoolInitMode) +
                        static_cast<int>(spoolWorkerMode) + static_cast<int>(mergeMode);
  if (modeCount > 1)
    errors.push_back("--spool-init, --spool-worker and --merge are mutually exclusive");
  if (modeCount > 0 && storeDir.empty()) errors.push_back("this mode needs --store=DIR");
  if (!storeDir.empty() && modeCount == 0)
    errors.push_back("--store needs a mode: --spool-init, --spool-worker or --merge");
  if (leaseTimeout <= 0.0) errors.push_back("--lease-timeout must be > 0");

  sweep::SweepGrid grid;
  if (!configFile.empty()) {
    grid.base = runner::loadConfigFile(configFile);
  } else if (traceName == "reality") {
    grid.base.trace = trace::realityLikeConfig();
    grid.base.catalog.refreshPeriod = sim::days(2);
    grid.base.workload.queriesPerNodePerDay = 1.0;
    grid.base.workload.queryDeadline = sim::days(1);
  } else if (traceName == "infocom") {
    grid.base.trace = trace::infocomLikeConfig();
    grid.base.catalog.refreshPeriod = sim::hours(6);
    grid.base.workload.queriesPerNodePerDay = 2.0;
    grid.base.workload.queryDeadline = sim::hours(3);
  } else if (traceName == "mobility") {
    grid.base.trace = trace::mobilityConfig(
        nodesFlag > 0 ? static_cast<std::size_t>(nodesFlag) : 1000);
    grid.base.catalog.refreshPeriod = sim::days(2);
    grid.base.workload.queriesPerNodePerDay = 1.0;
    grid.base.workload.queryDeadline = sim::days(1);
  } else {
    errors.push_back("unknown trace preset '" + traceName + "'");
  }
  if (days > 0.0) grid.base.trace.duration = sim::days(days);

  if (!schemeSpec.empty()) grid.schemes = parseSchemes(schemeSpec, errors);
  for (std::int64_t i = 0; i < seedCount; ++i)
    grid.seeds.push_back(grid.base.seed + static_cast<std::uint64_t>(i));
  if (!sweepSpec.empty()) grid.axes = parseAxes(sweepSpec, errors);

  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "error: " << e << "\n";
    std::cerr << "\n" << args.helpText("dtncache_sweep");
    return 2;
  }

  // Parsed before mode dispatch so a typo'd filter fails in every mode.
  const obs::KindMask traceFilter = obs::parseKindFilter(traceFilterSpec);

  if (spoolWorkerMode) {
    sweep::SpoolWorkerOptions spoolOptions;
    spoolOptions.storeDir = storeDir;
    spoolOptions.leaseTimeout = leaseTimeout;
    spoolOptions.quiet = quiet;
    const auto report = sweep::runSpoolWorker(spoolOptions);
    if (!quiet) {
      std::cerr << "spool-worker: " << report.completed << " job(s) completed"
                << (report.allDone ? ", store complete" : "") << "\n";
      printTraceMemo();
    }
    return 0;
  }

  if (mergeMode) {
    // Assemble a complete store into the requested outputs, strictly in
    // job-index order — the bytes a single-process run would have written.
    const sweep::FragmentStore store(storeDir);
    const auto manifestText = store.readFile("manifest.txt");
    if (!manifestText.has_value()) {
      std::cerr << "error: no manifest.txt in " << storeDir << "\n";
      return 2;
    }
    const auto units =
        sweep::workUnits(sweep::expandGrid(sweep::decodeManifest(*manifestText).grid));
    std::ofstream jsonlFile, csvFile, traceFile;
    std::ostream* jsonl = jsonlPath.empty() ? nullptr : openSink(jsonlPath, jsonlFile);
    std::ostream* csv = csvPath.empty() ? nullptr : openSink(csvPath, csvFile);
    std::ostream* traceOut =
        traceOutPath.empty() ? nullptr : openSink(traceOutPath, traceFile);
    sweep::mergeFragments(store, sweep::sweepFingerprint(*manifestText), units, jsonl,
                          csv, traceOut);
    if (!quiet)
      std::cerr << "merge: " << units.size() << " job(s) from " << storeDir << "\n";
    return 0;
  }

  if (spoolInitMode) {
    sweep::SweepManifest manifest;
    manifest.grid = grid;
    manifest.wallClock = !noWall;
    manifest.traceEnabled = !traceOutPath.empty();
    manifest.traceFilter = traceFilter;
    const auto jobCount = sweep::spoolInit(manifest, storeDir);
    if (!quiet)
      std::cerr << "spool store " << storeDir << " ready: " << jobCount
                << " job(s); run --spool-worker against it\n";
    return 0;
  }

  const auto plan = sweep::expandGrid(grid);  // validates axis keys up front
  if (list) {
    for (const auto& job : plan) {
      std::cout << job.index << "  " << sweep::configFingerprint(job.config) << "  "
                << runner::schemeName(job.config.scheme) << "  seed="
                << job.config.seed;
      for (const auto& [key, value] : job.overrides)
        std::cout << "  " << key << "=" << value;
      std::cout << "\n";
    }
    std::cerr << plan.size() << " job(s)\n";
    return 0;
  }

  std::ofstream jsonlFile, csvFile;
  std::vector<std::unique_ptr<sweep::ResultSink>> owned;
  std::vector<sweep::ResultSink*> sinks;
  if (!jsonlPath.empty()) {
    owned.push_back(
        std::make_unique<sweep::JsonlSink>(*openSink(jsonlPath, jsonlFile), !noWall));
    sinks.push_back(owned.back().get());
  }
  if (!csvPath.empty()) {
    owned.push_back(
        std::make_unique<sweep::CsvSink>(*openSink(csvPath, csvFile), !noWall));
    sinks.push_back(owned.back().get());
  }

  sweep::SweepOptions options;
  options.jobs = static_cast<std::size_t>(jobs);
  options.progress = !quiet;
  options.traceFilter = traceFilter;
  std::ofstream traceFile;
  if (!traceOutPath.empty()) options.traceOut = openSink(traceOutPath, traceFile);
  sweep::SweepEngine engine(options);
  const auto results = engine.runJobs(plan, sinks);

  if (!quiet) {
    double wall = 0.0;
    for (const auto& r : results) wall += r.wallSeconds;
    std::cerr << "sweep: " << results.size() << " run(s), "
              << (jobs == 0 ? sweep::ThreadPool::defaultWorkers()
                            : static_cast<std::size_t>(jobs))
              << " worker(s), total simulated work "
              << static_cast<long>(wall * 1000.0) << " ms\n";
    printTraceMemo();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runSweep(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
