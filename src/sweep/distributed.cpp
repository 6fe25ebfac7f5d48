#include "sweep/distributed.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "runner/experiment.hpp"
#include "sim/assert.hpp"
#include "sweep/result_sink.hpp"

namespace dtncache::sweep {

// ---- work-unit execution ----------------------------------------------------

Fragment runWorkUnitFragment(const SweepManifest& manifest, std::uint64_t sweepFp,
                             const SweepJob& jobIn) {
  SweepJob job = jobIn;
  std::unique_ptr<obs::Tracer> tracer;
  std::ostringstream traceOut;
  if (manifest.traceEnabled) {
    tracer = std::make_unique<obs::Tracer>(configFingerprint(job.config),
                                           manifest.traceFilter);
    job.config.tracer = tracer.get();
  } else {
    job.config.tracer = nullptr;
  }
  // Exactly the events SweepEngine::runJobs emits around a job, so a
  // fragment's trace slice is byte-equal to the single-process trace.
  DTNCACHE_EVENT(job.config.tracer, obs::EventKind::kJobStart, 0.0,
                 {"job", job.index},
                 {"scheme", runner::schemeName(job.config.scheme)},
                 {"seed", job.config.seed});
  const auto start = std::chrono::steady_clock::now();
  auto output = runner::runExperiment(job.config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  DTNCACHE_EVENT(job.config.tracer, obs::EventKind::kJobDone,
                 output.traceStats.duration, {"job", job.index});
  if (tracer != nullptr) tracer->flushTo(traceOut);

  JobResult result{std::move(job), std::move(output), wall};
  const auto fields = recordFields(result, manifest.wallClock);
  Fragment fragment;
  fragment.jobIndex = static_cast<std::uint64_t>(result.job.index);
  fragment.sweepFp = sweepFp;
  fragment.configFp = configFingerprintU64(result.job.config);
  fragment.jsonl = renderJsonlLine(fields);
  fragment.csvHeader = renderCsvHeader(fields);
  fragment.csvRow = renderCsvRow(fields);
  fragment.trace = traceOut.str();
  return fragment;
}

// ---- spool worker -----------------------------------------------------------

namespace {

/// Idle poll period while every incomplete unit is leased elsewhere. A
/// tick costs one stat(2) per awaited lease, not a store re-scan, so it can
/// be short enough that a worker wakes promptly when a unit frees up.
constexpr auto kIdlePoll = std::chrono::milliseconds(2);

/// Sleep until one of `leased`'s lease files is gone or stale. A gone lease
/// means its unit completed or was given up — a holder renames its fragment
/// into place before releasing — so these names alone say when a re-scan
/// can find new work.
void awaitLeases(const FragmentStore& store, const std::vector<std::uint64_t>& leased,
                 double leaseTimeout) {
  const auto anyFreed = [&] {
    for (const std::uint64_t index : leased) {
      const auto age = store.leaseAge(index);
      if (!age.has_value() || *age >= leaseTimeout) return true;
    }
    return false;
  };
  do std::this_thread::sleep_for(kIdlePoll);
  while (!leased.empty() && !anyFreed());
}

}  // namespace

std::size_t spoolInit(const SweepManifest& manifest, const std::string& storeDir) {
  FragmentStore store(storeDir);
  const std::string manifestText = encodeManifest(manifest);
  if (const auto existing = store.readFile("manifest.txt")) {
    DTNCACHE_CHECK_MSG(*existing == manifestText,
                       "store " << storeDir
                                << " holds a different sweep (manifest mismatch)");
  } else {
    store.writeFile("manifest.txt", manifestText);
  }
  const auto jobs = expandGrid(manifest.grid);
  // One peerd-style `"kind": "counters"` line, so trace_summarize.py's
  // --sweep-store readout knows the job total.
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(sweepFingerprint(manifestText)));
  store.writeFile("status.jsonl", std::string("{\"run\": \"sweep-") + fp +
                                      "\", \"kind\": \"counters\", "
                                      "\"ctr.sweep.jobs_total\": " +
                                      std::to_string(jobs.size()) + "}\n");
  return jobs.size();
}

SpoolReport runSpoolWorker(const SpoolWorkerOptions& options) {
  FragmentStore store(options.storeDir);
  const auto manifestText = store.readFile("manifest.txt");
  DTNCACHE_CHECK_MSG(manifestText.has_value(),
                     "no manifest.txt in " << options.storeDir
                                           << " — run --spool-init first");
  const std::uint64_t sweepFp = sweepFingerprint(*manifestText);
  const SweepManifest manifest = decodeManifest(*manifestText);
  const auto jobs = expandGrid(manifest.grid);
  const auto units = workUnits(jobs);
  // Visit units grouped by trace, like SweepEngine's dispatch, so this
  // process generates each trace once; the merge restores job-index order.
  const auto order = traceGroupedOrder(jobs);

  SpoolReport report;
  std::vector<std::uint64_t> leasedElsewhere;
  for (;;) {
    // Re-scan each pass: other workers complete units concurrently, and the
    // scan also drops any torn fragment a killed worker left behind.
    const auto scanned = store.scan(sweepFp, /*dropInvalid=*/true);
    if (scanned.valid.size() >= units.size()) {
      report.allDone = true;
      return report;
    }
    bool progressed = false;
    leasedElsewhere.clear();
    for (const std::size_t position : order) {
      const WorkUnit& unit = units[position];
      if (scanned.valid.count(unit.index) != 0) continue;
      if (const auto age = store.leaseAge(unit.index)) {
        if (*age < options.leaseTimeout) {  // someone is (probably) on it
          leasedElsewhere.push_back(unit.index);
          continue;
        }
        store.releaseLease(unit.index);  // stale: the holder died
      }
      if (!store.tryLease(unit.index)) {  // lost the race
        leasedElsewhere.push_back(unit.index);
        continue;
      }
      if (store.hasFragment(unit.index)) {
        // Completed by another worker between our scan and the lease. A
        // writer releases its lease only after the fragment rename, so this
        // post-lease check makes duplicate runs impossible, not merely
        // idempotent.
        store.releaseLease(unit.index);
        continue;
      }
      if (options.crashAfter > 0 && report.completed >= options.crashAfter)
        return report;  // simulated kill -9: lease held, no fragment written
      const Fragment fragment =
          runWorkUnitFragment(manifest, sweepFp, jobs[unit.index]);
      store.put(fragment);
      store.releaseLease(unit.index);
      ++report.completed;
      progressed = true;
      if (!options.quiet)
        std::fprintf(stderr, "spool-worker: job %llu done\n",
                     static_cast<unsigned long long>(unit.index));
    }
    if (!progressed) awaitLeases(store, leasedElsewhere, options.leaseTimeout);
  }
}

}  // namespace dtncache::sweep
