#include "sweep/distributed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "sweep/result_sink.hpp"
#include "trace/generators.hpp"

namespace dtncache::sweep {
namespace {

std::string tempStore(const std::string& name) {
  // TempDir() outlives a ctest invocation; start from a clean slate so a
  // stale lease or fragment from a previous run cannot leak in.
  const std::string dir = std::string(::testing::TempDir()) + "dtncache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

SweepManifest tinyManifest() {
  SweepManifest manifest;
  manifest.grid.base.trace = trace::homogeneousConfig(12, 6.0, sim::days(1), 9);
  manifest.grid.base.catalog.itemCount = 2;
  manifest.grid.base.catalog.refreshPeriod = sim::hours(12);
  manifest.grid.base.workload.queriesPerNodePerDay = 2.0;
  manifest.grid.base.cache.cachingNodesPerItem = 4;
  manifest.grid.schemes = {runner::SchemeKind::kHierarchical,
                           runner::SchemeKind::kEpidemic};
  manifest.grid.seeds = {3, 4};
  manifest.wallClock = false;
  manifest.traceEnabled = true;
  return manifest;
}

/// Engine reference streams for a manifest: what any distributed run of the
/// same grid must reproduce byte for byte.
struct Reference {
  std::string jsonl;
  std::string csv;
  std::string trace;
};

Reference engineReference(const SweepManifest& manifest) {
  std::ostringstream jsonl, csv, traceOut;
  JsonlSink jsonlSink(jsonl, manifest.wallClock);
  CsvSink csvSink(csv, manifest.wallClock);
  SweepOptions options;
  options.jobs = 2;
  if (manifest.traceEnabled) options.traceOut = &traceOut;
  options.traceFilter = manifest.traceFilter;
  SweepEngine engine(options);
  engine.run(manifest.grid, {&jsonlSink, &csvSink});
  return {jsonl.str(), csv.str(), traceOut.str()};
}

Reference mergedStore(const std::string& storeDir, const SweepManifest& manifest) {
  const FragmentStore store(storeDir);
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const auto units = workUnits(expandGrid(manifest.grid));
  std::ostringstream jsonl, csv, traceOut;
  mergeFragments(store, sweepFp, units, &jsonl, &csv, &traceOut);
  return {jsonl.str(), csv.str(), traceOut.str()};
}

// ---- spool mode: corrupt checkpoints -----------------------------------------

TEST(Distributed, SpoolRequeuesCorruptFragments) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));
  const std::string storeDir = tempStore("spool_corrupt");
  spoolInit(manifest, storeDir);

  // Bank every job, then truncate job 1's fragment and flip a bit in job 2's.
  const FragmentStore store(storeDir);
  std::map<std::uint64_t, std::string> paths;
  for (const auto& job : expandGrid(manifest.grid))
    paths[job.index] = store.put(runWorkUnitFragment(manifest, sweepFp, job));
  const auto rewrite = [](const std::string& path, auto&& mutate) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    mutate(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };
  rewrite(paths.at(1), [](std::string& bytes) { bytes.resize(bytes.size() / 2); });
  rewrite(paths.at(2), [](std::string& bytes) { bytes.back() ^= 0x40; });
  const auto before = store.scan(sweepFp, /*dropInvalid=*/false);
  ASSERT_EQ(before.invalid, 2u);
  ASSERT_EQ(before.valid.size(), 2u);
  const auto mtime0 = std::filesystem::last_write_time(paths.at(0));
  const auto mtime3 = std::filesystem::last_write_time(paths.at(3));

  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  const SpoolReport report = runSpoolWorker(options);
  EXPECT_TRUE(report.allDone);
  EXPECT_EQ(report.completed, 2u);  // exactly the two damaged jobs re-ran
  const auto after = store.scan(sweepFp, /*dropInvalid=*/false);
  EXPECT_EQ(after.invalid, 0u);
  EXPECT_EQ(after.valid.size(), 4u);
  EXPECT_EQ(std::filesystem::last_write_time(paths.at(0)), mtime0);
  EXPECT_EQ(std::filesystem::last_write_time(paths.at(3)), mtime3);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

// ---- spool mode: randomized kill-and-resume ---------------------------------

TEST(Distributed, SpoolKillAndResumeLosesNothing) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("spool_kill");
  const std::size_t jobCount = spoolInit(manifest, storeDir);
  ASSERT_EQ(jobCount, 4u);

  // Crash-loop: every worker dies (holding a lease, mid-"write") after a
  // random number of completions; the next worker breaks the stale lease
  // and carries on. leaseTimeout 0 treats any existing lease as stale,
  // which is exactly the semantics of "that process is dead".
  std::mt19937_64 rng(11);
  SpoolReport report;
  int spawned = 0;
  while (!report.allDone) {
    ASSERT_LT(++spawned, 64) << "spool crash-loop failed to converge";
    SpoolWorkerOptions options;
    options.storeDir = storeDir;
    options.quiet = true;
    options.leaseTimeout = 0.0;
    options.crashAfter = 1 + rng() % 2;
    report = runSpoolWorker(options);
  }

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
  // No duplicated rows: line count equals the job count exactly.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(merged.jsonl.begin(), merged.jsonl.end(), '\n')),
            jobCount);
}

TEST(Distributed, SpoolWorkersRunConcurrently) {
  const SweepManifest manifest = tinyManifest();
  const Reference reference = engineReference(manifest);
  const std::string storeDir = tempStore("spool_pair");
  spoolInit(manifest, storeDir);

  SpoolWorkerOptions options;
  options.storeDir = storeDir;
  options.quiet = true;
  SpoolReport r1, r2;
  std::thread a([&] { r1 = runSpoolWorker(options); });
  std::thread b([&] { r2 = runSpoolWorker(options); });
  a.join();
  b.join();
  EXPECT_TRUE(r1.allDone);
  EXPECT_TRUE(r2.allDone);
  EXPECT_EQ(r1.completed + r2.completed, 4u);

  const Reference merged = mergedStore(storeDir, manifest);
  EXPECT_EQ(merged.jsonl, reference.jsonl);
  EXPECT_EQ(merged.csv, reference.csv);
  EXPECT_EQ(merged.trace, reference.trace);
}

}  // namespace
}  // namespace dtncache::sweep
