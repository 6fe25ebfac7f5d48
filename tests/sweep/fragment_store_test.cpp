#include "sweep/fragment_store.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>

#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/assert.hpp"
#include "sweep/distributed.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/work_unit.hpp"
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

Fragment sampleFragment(std::uint64_t index = 3) {
  Fragment fragment;
  fragment.jobIndex = index;
  fragment.sweepFp = 0x1122334455667788ull;
  fragment.configFp = 0x99aabbccddeeff00ull;
  fragment.jsonl = "{\"job\": " + std::to_string(index) + "}\n";
  fragment.csvHeader = "job,metric\n";
  fragment.csvRow = std::to_string(index) + ",0.5\n";
  fragment.trace = "{\"kind\": \"job_start\"}\n";
  return fragment;
}

TEST(FragmentCodec, RoundTrips) {
  const Fragment fragment = sampleFragment();
  const auto bytes = encodeFragment(fragment);
  Fragment decoded;
  ASSERT_TRUE(decodeFragment(bytes.data(), bytes.size(), &decoded));
  EXPECT_EQ(decoded.jobIndex, fragment.jobIndex);
  EXPECT_EQ(decoded.sweepFp, fragment.sweepFp);
  EXPECT_EQ(decoded.configFp, fragment.configFp);
  EXPECT_EQ(decoded.jsonl, fragment.jsonl);
  EXPECT_EQ(decoded.csvHeader, fragment.csvHeader);
  EXPECT_EQ(decoded.csvRow, fragment.csvRow);
  EXPECT_EQ(decoded.trace, fragment.trace);
  // Deterministic serialization backs the content-addressed file names.
  EXPECT_EQ(encodeFragment(decoded), bytes);
}

TEST(FragmentCodec, RejectsEveryTruncation) {
  const auto bytes = encodeFragment(sampleFragment());
  Fragment decoded;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(decodeFragment(bytes.data(), cut, &decoded)) << "cut=" << cut;
}

TEST(FragmentCodec, RejectsBitFlipsInGuardedBytes) {
  // The CRC guards bodyLen | bodyCrc | body (bytes 32..end); magic and
  // version guard bytes 0..4. Identity fields (jobIndex, sweepFp, configFp)
  // are instead cross-checked by scan (foreign sweep) and merge (config
  // fingerprint), so a flip there is caught one layer up, not here.
  const auto bytes = encodeFragment(sampleFragment());
  std::vector<std::size_t> guarded;
  for (std::size_t i = 0; i < 5; ++i) guarded.push_back(i);
  for (std::size_t i = 32; i < bytes.size(); ++i) guarded.push_back(i);
  for (const std::size_t i : guarded) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto corrupt = bytes;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      Fragment decoded;
      EXPECT_FALSE(decodeFragment(corrupt.data(), corrupt.size(), &decoded))
          << "byte=" << i << " bit=" << bit;
    }
  }
}

TEST(FragmentStoreTest, PutScanRead) {
  FragmentStore store(tempStore("put_scan"));
  const Fragment a = sampleFragment(0);
  const Fragment b = sampleFragment(1);
  store.put(a);
  const std::string pathB = store.put(b);

  const auto scanned = store.scan(a.sweepFp, /*dropInvalid=*/false);
  EXPECT_EQ(scanned.invalid, 0u);
  ASSERT_EQ(scanned.valid.size(), 2u);
  ASSERT_TRUE(scanned.valid.count(1));
  EXPECT_EQ(scanned.valid.at(1), pathB);

  const auto readBack = store.read(pathB);
  ASSERT_TRUE(readBack.has_value());
  EXPECT_EQ(readBack->jsonl, b.jsonl);

  // A different sweep sees these fragments as foreign.
  const auto foreign = store.scan(a.sweepFp + 1, /*dropInvalid=*/false);
  EXPECT_TRUE(foreign.valid.empty());
  EXPECT_EQ(foreign.invalid, 2u);
}

TEST(FragmentStoreTest, ScanDropsTornAndFlippedFragments) {
  FragmentStore store(tempStore("scan_drop"));
  const Fragment good = sampleFragment(0);
  store.put(good);

  // A torn write of job 1 (header promises more bytes than exist) and a
  // bit-flipped copy of job 2, dropped under the final .frag name the way a
  // kill -9 mid-rename cannot produce but a dying disk can.
  const auto bytes1 = encodeFragment(sampleFragment(1));
  auto bytes2 = encodeFragment(sampleFragment(2));
  bytes2[bytes2.size() - 3] ^= 0x10;
  const std::string dir = store.dir() + "/frags";
  std::ofstream(dir + "/job-0000000001-deadbeef.frag", std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes1.data()),
             static_cast<long>(bytes1.size() / 2));
  std::ofstream(dir + "/job-0000000002-deadbeef.frag", std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes2.data()),
             static_cast<long>(bytes2.size()));

  const auto scanned = store.scan(good.sweepFp, /*dropInvalid=*/true);
  EXPECT_EQ(scanned.invalid, 2u);
  ASSERT_EQ(scanned.valid.size(), 1u);
  EXPECT_TRUE(scanned.valid.count(0));

  // dropInvalid unlinked the corrupt files: a second scan is clean.
  const auto rescanned = store.scan(good.sweepFp, /*dropInvalid=*/false);
  EXPECT_EQ(rescanned.invalid, 0u);
  EXPECT_EQ(rescanned.valid.size(), 1u);
}

TEST(FragmentStoreTest, PutBytesValidatesSweep) {
  FragmentStore store(tempStore("put_bytes"));
  const Fragment fragment = sampleFragment();
  const auto bytes = encodeFragment(fragment);

  EXPECT_FALSE(store.putBytes(bytes, fragment.sweepFp + 1));  // foreign sweep
  auto corrupt = bytes;
  corrupt.back() ^= 1;
  EXPECT_FALSE(store.putBytes(corrupt, fragment.sweepFp));

  Fragment decoded;
  ASSERT_TRUE(store.putBytes(bytes, fragment.sweepFp, &decoded));
  EXPECT_EQ(decoded.jobIndex, fragment.jobIndex);
  EXPECT_EQ(store.scan(fragment.sweepFp, false).valid.size(), 1u);
}

TEST(FragmentStoreTest, LeasesAreExclusive) {
  FragmentStore store(tempStore("leases"));
  EXPECT_FALSE(store.leaseAge(5).has_value());
  EXPECT_TRUE(store.tryLease(5));
  EXPECT_FALSE(store.tryLease(5));  // held
  ASSERT_TRUE(store.leaseAge(5).has_value());
  EXPECT_GE(*store.leaseAge(5), 0.0);
  store.releaseLease(5);
  EXPECT_FALSE(store.leaseAge(5).has_value());
  EXPECT_TRUE(store.tryLease(5));  // reacquirable after release
}

TEST(FragmentStoreTest, FreshLeaseStaysUnbrokenUnderOneSecondTimeout) {
  FragmentStore store(tempStore("lease_age"));
  ASSERT_TRUE(store.tryLease(7));
  // Backdate the lease into the previous wall-clock second while keeping it
  // well under 1 s old: whole-second arithmetic reads that as 1 s, which a
  // --lease-timeout=1 spool worker would break.
  timespec now{};
  for (;;) {
    ::clock_gettime(CLOCK_REALTIME, &now);
    if (now.tv_nsec < 500'000'000) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const timespec mtime{now.tv_sec - 1, 800'000'000};  // 0.2-0.7 s ago
  const timespec times[2] = {mtime, mtime};
  ASSERT_EQ(::utimensat(AT_FDCWD, (store.dir() + "/lease-7").c_str(), times, 0), 0);

  const auto age = store.leaseAge(7);
  ASSERT_TRUE(age.has_value());
  EXPECT_GT(*age, 0.1);
  EXPECT_LT(*age, 1.0);  // the spool worker breaks a lease at age >= timeout
}

/// The core byte-identity property at the unit level: fragments produced by
/// runWorkUnitFragment and merged in job-index order reproduce the engine's
/// sink streams exactly.
TEST(MergeFragments, ByteIdenticalToEngineSinks) {
  SweepManifest manifest;
  manifest.grid.base.trace = trace::homogeneousConfig(12, 6.0, sim::days(1), 9);
  manifest.grid.base.catalog.itemCount = 2;
  manifest.grid.base.catalog.refreshPeriod = sim::hours(12);
  manifest.grid.base.workload.queriesPerNodePerDay = 2.0;
  manifest.grid.base.cache.cachingNodesPerItem = 4;
  manifest.grid.schemes = {runner::SchemeKind::kHierarchical,
                           runner::SchemeKind::kEpidemic};
  manifest.grid.seeds = {3, 4};
  manifest.wallClock = false;  // the only nondeterministic columns
  manifest.traceEnabled = true;
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));

  // Reference: the in-process engine with its sinks.
  std::ostringstream refJsonl, refCsv, refTrace;
  JsonlSink jsonlSink(refJsonl, /*wallClock=*/false);
  CsvSink csvSink(refCsv, /*wallClock=*/false);
  SweepOptions options;
  options.jobs = 2;
  options.traceOut = &refTrace;
  SweepEngine engine(options);
  engine.run(manifest.grid, {&jsonlSink, &csvSink});

  // Distributed path: each job to a fragment, merged from the store.
  FragmentStore store(tempStore("merge_equal"));
  const auto jobs = expandGrid(manifest.grid);
  const auto units = workUnits(jobs);
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it)  // any completion order
    store.put(runWorkUnitFragment(manifest, sweepFp, *it));

  std::ostringstream jsonl, csv, traceOut;
  mergeFragments(store, sweepFp, units, &jsonl, &csv, &traceOut);
  EXPECT_EQ(jsonl.str(), refJsonl.str());
  EXPECT_EQ(csv.str(), refCsv.str());
  EXPECT_EQ(traceOut.str(), refTrace.str());
}

TEST(MergeFragments, MissingFragmentThrows) {
  SweepManifest manifest;
  manifest.grid.base.trace = trace::homogeneousConfig(10, 6.0, sim::days(1), 9);
  manifest.grid.base.catalog.itemCount = 2;
  manifest.grid.seeds = {1, 2, 3};
  manifest.wallClock = false;
  const std::uint64_t sweepFp = sweepFingerprint(encodeManifest(manifest));

  FragmentStore store(tempStore("merge_missing"));
  const auto jobs = expandGrid(manifest.grid);
  const auto units = workUnits(jobs);
  for (const auto& job : jobs)
    if (job.index != 1) store.put(runWorkUnitFragment(manifest, sweepFp, job));

  std::ostringstream jsonl;
  EXPECT_THROW(mergeFragments(store, sweepFp, units, &jsonl, nullptr, nullptr),
               InvariantViolation);
}

}  // namespace
}  // namespace dtncache::sweep
