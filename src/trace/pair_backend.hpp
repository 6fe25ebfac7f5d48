#pragma once

/// \file pair_backend.hpp
/// Backend selection for pairwise (per node pair) state.
///
/// Every pairwise structure in the reproduction — the rate matrix, the
/// contact-rate estimator's pair table, the centrality probability cache —
/// can be stored two ways:
///  - kDense: an n(n-1)/2 upper-triangular array. One indexed load per
///    lookup; the right choice for the few-hundred-node paper scenarios
///    where the triangle is smaller than any hash table.
///  - kSparse: keyed by observed pairs only (open-addressing SlotIndex over
///    packed pair keys + per-node sorted adjacency). Memory and iteration
///    cost scale with pairs that actually met, which is what makes 10^5-10^6
///    node scenarios representable at all — in opportunistic traces almost
///    all of the n^2/2 pairs never meet.
///
/// kAuto picks dense below densePairNodeThreshold() nodes and sparse above,
/// so existing small-N experiments keep their exact dense code path (and
/// byte-identical output) while large-N scenarios never allocate a
/// triangle. The DTNCACHE_SPARSE_PAIRS environment variable overrides the
/// choice process-wide ("0" or "dense" forces dense, any other non-empty
/// value forces sparse); CI uses it to assert that forced-sparse small-N
/// sweeps are byte-identical to the default dense run, the same discipline
/// as the jobs=1-vs-4 and DTNCACHE_FULL_MAINTENANCE checks. Deliberately
/// not a config key: run fingerprints must match across backends.
///
/// Equivalence contract (enforced by tests/trace/sparse_equivalence_test):
/// with a default (never-met) rate of exactly 0.0 every derived quantity —
/// rates, meeting probabilities, capability sums, NCL selection, hypoexp
/// plan inputs — is bit-identical across backends, because skipping a 0.0
/// term of a non-negative sum cannot change the accumulation. With a
/// nonzero default rate the sparse backend folds the default contribution
/// in closed form ((n-1-degree) * default), which is mathematically equal
/// but associates differently; nothing in the sweep surface sets a nonzero
/// prior, so all committed outputs stay byte-stable.

#include <cstddef>
#include <cstdlib>

namespace dtncache::trace {

enum class PairBackend { kAuto, kDense, kSparse };

/// Node count at and below which kAuto chooses the dense triangle.
inline constexpr std::size_t kDensePairNodeThreshold = 1024;

/// Process-wide override from DTNCACHE_SPARSE_PAIRS (unset -> kAuto).
inline PairBackend pairBackendOverride() {
  static const PairBackend value = [] {
    const char* env = std::getenv("DTNCACHE_SPARSE_PAIRS");
    if (env == nullptr || env[0] == '\0') return PairBackend::kAuto;
    if ((env[0] == '0' && env[1] == '\0') ||
        (env[0] == 'd' || env[0] == 'D'))
      return PairBackend::kDense;
    return PairBackend::kSparse;
  }();
  return value;
}

/// Resolve a requested backend for an n-node structure: explicit request
/// wins, then the environment override, then the size threshold.
inline bool useSparsePairs(std::size_t nodeCount, PairBackend requested) {
  if (requested != PairBackend::kAuto) return requested == PairBackend::kSparse;
  const PairBackend env = pairBackendOverride();
  if (env != PairBackend::kAuto) return env == PairBackend::kSparse;
  return nodeCount > kDensePairNodeThreshold;
}

/// Refuse a dense triangle that cannot exist: throws std::length_error —
/// naming `what`, the node count and the sparse backend — when n(n-1)/2
/// entries of `bytesPerPair` bytes exceed the host's physical memory.
/// Every dense pair structure calls this before it allocates, so an
/// impossible configuration fails with a message instead of bad_alloc.
void checkDenseTriangleFits(std::size_t nodeCount, double bytesPerPair, const char* what);

}  // namespace dtncache::trace
