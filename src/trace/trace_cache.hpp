#pragma once

/// \file trace_cache.hpp
/// Process-wide memoization of synthetic-trace generation.
///
/// `generate()` is deterministic in its config, and the workloads that
/// dominate wall-clock reuse the same config many times over: every cell of
/// a sweep grid that shares a seed replays the same world and warm-up
/// traces, and benchmark reps re-run one config back to back. Generation is
/// RNG-bound (hundreds of thousands of exponential draws), so replaying a
/// cached trace instead is a large constant saving with byte-identical
/// results — callers receive the same contacts, rates and community vectors
/// a fresh generate() would produce.
///
/// The memo is keyed by the full config (every field, not just the seed)
/// plus whether the caller wants the whole trace or its contacts only, and
/// is safe to call from concurrent sweep workers:
///  - Single-flight: the first caller of a config generates it; concurrent
///    callers of the same config wait for that result instead of
///    generating duplicates. If generation throws, every waiter gets the
///    exception and no entry is left behind, so a later call retries.
///  - Retention: an entry is kept while any caller holds its trace. Of the
///    idle entries (no holder), only the two most recently used are kept —
///    one experiment's world plus its warm-up — so back-to-back runs of one
///    config still hit. Idle entries beyond those are dropped on the next
///    call.
/// Sweeps get one generation per distinct trace by dispatching jobs grouped
/// by trace config (sweep::traceGroupedOrder), so a seed's traces stay held
/// while all of its cells run.

#include <cstddef>
#include <memory>

#include "trace/generators.hpp"

namespace dtncache::trace {

/// Like generate(), but memoized: returns a shared immutable trace, reusing
/// (or waiting for) a generation of an identical config when one is cached
/// or in flight. Rethrows generate()'s exception for an invalid config.
std::shared_ptr<const SyntheticTrace> generateShared(const SyntheticTraceConfig& config);

/// Like generateShared(), but the entry holds generateContacts(config)
/// only: `rates` and `community` are empty. For callers that replay the
/// contacts and read nothing else — the estimator warm-up — this skips the
/// mobility models' sparse ground-truth rate matrix. A separate entry from
/// generateShared(config)'s, under the same single-flight and retention
/// rules and the same hit/miss counters.
std::shared_ptr<const SyntheticTrace> contactsShared(const SyntheticTraceConfig& config);

struct TraceCacheStats {
  std::size_t hits = 0;     ///< calls served by a cached or in-flight trace
  std::size_t misses = 0;   ///< generations started
  std::size_t entries = 0;  ///< traces cached now (held, idle or in flight)
};

/// Counters since process start (or the last clearTraceCache()).
TraceCacheStats traceCacheStats();

/// Drop all cached traces and reset the stats (tests).
void clearTraceCache();

/// Memoized adoption of a caller-owned external (replayed) trace: copies
/// the trace and fits its MLE rate matrix once, then reuses the result for
/// subsequent calls over the same trace. The external-trace experiment path
/// bypasses generateShared(), so without this every job of a sweep arm
/// re-copied the contact list and refit the full O(N² + contacts) rate
/// matrix even though all jobs replay one loaded trace. Keyed by the
/// trace's address plus a content fingerprint (node count, contact count,
/// duration bits, and a strided sample of contact records), so a reloaded
/// or mutated trace at a recycled address misses and is refit. Thread-safe;
/// results are byte-identical to an unmemoized fit.
std::shared_ptr<const SyntheticTrace> externalShared(const ContactTrace& trace);

/// Counters for the external-trace memo (shared clock with the generator
/// cache but tracked separately).
TraceCacheStats externalTraceCacheStats();

/// Drop all adopted external traces and reset the stats (tests).
void clearExternalTraceCache();

}  // namespace dtncache::trace
