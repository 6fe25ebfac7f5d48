#pragma once

/// \file distributed.hpp
/// The multi-process sweep: a shared-directory spool. `spoolInit` writes
/// the manifest into a FragmentStore; any number of `runSpoolWorker`
/// processes, on any hosts that mount the store, lease units through
/// exclusive `lease-<index>` files, run them, and write fragments; then
/// mergeFragments assembles the outputs. However the jobs ran — one
/// process, many processes, many hosts, crashed and re-run — the merge
/// produces bytes identical to a single-process `--jobs N` sweep.

#include <cstdint>
#include <string>

#include "sweep/fragment_store.hpp"
#include "sweep/work_unit.hpp"

namespace dtncache::sweep {

/// Run one work unit exactly as SweepEngine would — same tracer labeling,
/// same job start/done events, same field rendering — and package the
/// result as a fragment. The cornerstone of the byte-identity guarantee:
/// a fragment's sections are the very strings the single-process sinks
/// would have streamed for this job.
Fragment runWorkUnitFragment(const SweepManifest& manifest, std::uint64_t sweepFp,
                             const SweepJob& job);

struct SpoolWorkerOptions {
  std::string storeDir;
  double leaseTimeout = 600.0;  ///< age at which a lease file is broken
  bool quiet = false;
  /// Test hook simulating `kill -9`: after this many completions the worker
  /// acquires one more lease and returns without running or releasing it
  /// (0 = run to completion).
  std::size_t crashAfter = 0;
};

struct SpoolReport {
  std::size_t completed = 0;
  bool allDone = false;  ///< every unit had a fragment when we left
};

/// Lease-loop over `<store>/lease-*` files: pick an unleased incomplete
/// unit (visited in traceGroupedOrder, so one worker generates each trace
/// once), run it, write the fragment, release. Stale leases (older than
/// leaseTimeout) are broken. When every incomplete unit is leased
/// elsewhere, polls just those lease files until one is released or goes
/// stale. Valid fragments are never re-run, so running workers against a
/// partly complete store is the resume. Returns when the store is complete
/// (or the crash hook fired).
SpoolReport runSpoolWorker(const SpoolWorkerOptions& options);

/// Initialize a spool store: write the manifest + an initial status line so
/// workers and the progress tooling can start. Returns the job count.
std::size_t spoolInit(const SweepManifest& manifest, const std::string& storeDir);

}  // namespace dtncache::sweep
