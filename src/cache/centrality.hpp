#pragma once

/// \file centrality.hpp
/// Network Central Location selection.
///
/// The cooperative-caching substrate (Gao et al., INFOCOM 2011) caches data
/// at Network Central Locations: the nodes best able to meet the rest of
/// the network. A node's metric is its contact capability within a window T,
///     C_i(T) = (1 / (N-1)) · Σ_{j≠i} (1 − e^{−λ_ij·T}),
/// i.e. the mean probability of meeting a random other node within T.
/// NCLs are picked greedily by marginal coverage. The first pick's gain is
/// (N−1)·C_i(T), so it is the top-capability node; each later pick
/// maximizes the coverage it adds, since two NCLs that mostly meet the
/// *same* nodes waste a slot.
///
/// The greedy pass is evaluated lazily (CELF, Leskovec et al. 2007): the
/// coverage gain is submodular, so a candidate's gain from an earlier pick
/// bounds its current one, and only candidates that reach the top of a
/// max-heap are re-evaluated. The picks — tie-breaks included — are those
/// of the eager scan that re-scores every candidate at every pick (see
/// lazyGreedyNcls in centrality.cpp for why the bound is bitwise). Cost:
/// one pass over every row to seed the heap plus the re-evaluations,
/// instead of k passes. Where the heap stops paying (small dense networks,
/// where every pick re-scores nearly every candidate), the call finishes
/// with the eager scan.
///
/// Sparse rate matrices (trace/pair_backend.hpp) with a zero default rate
/// get a sparse evaluation path: gains and coverage updates iterate a
/// node's stored neighbors only, so selection costs about O(E + n log n)
/// plus the re-evaluated rows instead of O(n²k). This is bit-identical to
/// the dense evaluation — a never-met pair contributes exactly
/// 1 − e⁰ = 0.0 to every gain and multiplies coverage by exactly 1.0, so
/// skipping it cannot change any accumulation, comparison, or tie-break.
/// A nonzero default rate takes the per-pair path (correct, dense cost).
///
/// Selection runs once per run: the cooperative cache derives every item's
/// caching set from it at construction and never moves the sets.

#include <cstddef>
#include <vector>

#include "sim/time.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::cache {

/// Greedy marginal-coverage NCL selection: each pick maximizes the increase
/// of E[#nodes covered within T by at least one NCL]. Reduces to top-k when
/// coverage overlaps are negligible; differs (better) in community-
/// structured networks where top-k piles into one community.
std::vector<NodeId> selectNcls(const trace::RateMatrix& rates, sim::SimTime window,
                               std::size_t k);

}  // namespace dtncache::cache
