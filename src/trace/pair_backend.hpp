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
/// triangle. A run forces a backend through two fields that are
/// deliberately not config keys, so run fingerprints match across
/// backends: SyntheticTraceConfig::backend (the generated rate matrix) and
/// EstimatorConfig::backend (the estimator's pair table and snapshots).
/// tests/sweep/sweep_engine_test forces the sparse backend onto a small-N
/// sweep and requires it to be byte-identical to the default dense run.
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

namespace dtncache::trace {

enum class PairBackend { kAuto, kDense, kSparse };

/// Node count at and below which kAuto chooses the dense triangle.
inline constexpr std::size_t kDensePairNodeThreshold = 1024;

/// Resolve a requested backend for an n-node structure: an explicit
/// request wins, kAuto goes by the size threshold.
inline bool useSparsePairs(std::size_t nodeCount, PairBackend requested) {
  if (requested != PairBackend::kAuto) return requested == PairBackend::kSparse;
  return nodeCount > kDensePairNodeThreshold;
}

/// Refuse a dense triangle that cannot exist: throws std::length_error —
/// naming `what`, the node count and the sparse backend — when n(n-1)/2
/// entries of `bytesPerPair` bytes exceed the host's physical memory.
/// Every dense pair structure calls this before it allocates, so an
/// impossible configuration fails with a message instead of bad_alloc.
void checkDenseTriangleFits(std::size_t nodeCount, double bytesPerPair, const char* what);

}  // namespace dtncache::trace
