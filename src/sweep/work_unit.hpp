#pragma once

/// \file work_unit.hpp
/// Self-describing work units: the serialized identity of a sweep.
///
/// A multi-process sweep must guarantee that every participating process —
/// spool workers on any host, the merge pass — expands the *same* grid to
/// the *same* job list, whatever host or binary invoked it. The
/// SweepManifest is that contract: a canonical text rendering of the grid
/// (base config via runner::dumpConfig, scheme/seed/axis lists) plus the
/// output-shaping switches that affect result bytes (wall-clock fields,
/// tracing, trace filter). Its FNV-1a hash — the sweep fingerprint — names
/// the sweep; every fragment header and store scan checks it, so a worker
/// from a different grid (or a stale store) cannot contribute a byte.
///
/// Work units themselves are (job index, config fingerprint, seed)
/// triples derived from the expanded grid. The config fingerprint pins the
/// exact experiment a fragment holds: when a worker expanded a different
/// config at the same index (version skew, axis drift), the merge detects
/// the mismatch and aborts instead of emitting a plausible-looking but
/// wrong row.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "sweep/sweep_engine.hpp"

namespace dtncache::sweep {

/// Everything a process needs to reproduce the sweep: the grid plus the
/// switches that shape result bytes.
struct SweepManifest {
  SweepGrid grid;
  bool wallClock = true;       ///< render wall_ms / timer.* columns
  bool traceEnabled = false;   ///< run per-job tracers, keep trace slices
  obs::KindMask traceFilter = obs::kAllKinds;
};

/// Canonical line-oriented text form. Deterministic: the same manifest
/// always encodes to the same bytes (the config is rendered through
/// dumpConfig, lists in declaration order).
std::string encodeManifest(const SweepManifest& manifest);

/// Parse encodeManifest() output. Throws sim::InvariantViolation (via
/// DTNCACHE_CHECK) on malformed text, unknown schemes, or a version this
/// binary does not speak.
SweepManifest decodeManifest(const std::string& text);

/// FNV-1a 64 over the manifest text: the identity of the whole sweep.
std::uint64_t sweepFingerprint(const std::string& manifestText);

/// One leaseable unit of work, as referenced by lease files and fragment
/// headers.
struct WorkUnit {
  std::uint64_t index = 0;     ///< position in the expanded grid
  std::uint64_t configFp = 0;  ///< configFingerprintU64 of the job's config
  std::uint64_t seed = 0;
};

/// The expanded grid's units, in job-index order.
std::vector<WorkUnit> workUnits(const std::vector<SweepJob>& jobs);

}  // namespace dtncache::sweep
