#pragma once

/// \file experiment.hpp
/// One-call experiment assembly: trace → substrate → scheme → results.
///
/// Every bench binary and example builds an ExperimentConfig, calls
/// runExperiment(), and formats the returned numbers. Keeping assembly in
/// one place guarantees all schemes are compared under identical traces,
/// catalogs, workloads, and estimator state (paired comparison: same seeds
/// everywhere except the scheme).
///
/// Estimator warm-up: nodes in the paper know their contact rates from
/// history. We reproduce that by pre-feeding the estimator with a warm-up
/// trace drawn from the *same* mobility model with a *different* seed
/// (world seed + 777, time-shifted to negative times), so planning
/// knowledge is realistic without reusing the evaluation trace. Only its
/// contacts are read, so it comes from the trace memo's contacts-only
/// entries (trace::contactsShared), and a helper thread generates and
/// feeds it while the world trace is generated; the run waits for it
/// before anything reads the estimator. An external trace has no second
/// trace: its own first `estimatorWarmup` span is fed instead, inline.

#include <memory>
#include <string>

#include "baselines/baselines.hpp"
#include "cache/allocation.hpp"
#include "cache/coop_cache.hpp"
#include "core/hierarchical_scheme.hpp"
#include "net/churn.hpp"
#include "net/energy.hpp"
#include "data/item.hpp"
#include "data/workload.hpp"
#include "metrics/collector.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "runner/shard_driver.hpp"
#include "trace/estimator.hpp"
#include "trace/generators.hpp"

namespace dtncache::runner {

enum class SchemeKind {
  kHierarchical,
  kNoRefresh,
  kSourceDirect,
  kEpidemic,
  kFlooding,
  kPull,
  kInvalidation,
};

const char* schemeName(SchemeKind kind);

/// All schemes, comparison order (ours first, ceiling last).
std::vector<SchemeKind> allSchemes();

struct ExperimentConfig {
  trace::SyntheticTraceConfig trace = trace::realityLikeConfig();
  /// When set, run on this (caller-owned) trace instead of generating one:
  /// planning rates are fit from the whole trace, and the estimator is
  /// pre-fed the first `estimatorWarmup` span (time-shifted; the same span
  /// is still simulated — the warm-up only gives estimates a head start,
  /// matching nodes that carry history into the measured window).
  const trace::ContactTrace* externalTrace = nullptr;
  data::CatalogConfig catalog;          ///< nodeCount is synced from trace
  data::WorkloadConfig workload;        ///< end synced from trace; rate 0 = no queries
  cache::CoopCacheConfig cache;
  net::NetworkConfig network;  ///< bandwidth, contact-loss rate
  trace::EstimatorConfig estimator;
  /// Length of the warm-up history fed to the estimator (see the file
  /// comment); 0 starts the estimator cold.
  sim::SimTime estimatorWarmup = sim::days(7);

  /// Popularity-aware division of the cache-slot budget (total stays
  /// itemCount × cache.cachingNodesPerItem): per-item counts follow the
  /// workload's Zipf weights under the chosen policy (experiment F13).
  cache::AllocationPolicy allocation = cache::AllocationPolicy::kUniform;

  SchemeKind scheme = SchemeKind::kHierarchical;
  core::HierarchicalConfig hierarchical;
  baselines::PullConfig pull;
  baselines::InvalidationConfig invalidation;

  /// Node churn (failure injection). Sources are always protected; the
  /// hierarchical scheme repairs membership on flips when
  /// `churnRepairEnabled` (baselines never react — they have no structure
  /// to repair).
  bool churnEnabled = false;
  bool churnRepairEnabled = true;
  net::ChurnConfig churn;

  /// Battery accounting; depleted nodes drop out of the network for good.
  /// With `energyAwarePlanning`, the hierarchical scheme's helper selection
  /// is weighted by remaining battery (extension experiment F12).
  bool energyEnabled = false;
  bool energyAwarePlanning = false;
  net::EnergyConfig energy;

  /// Master seed, mixed into the trace/workload seeds so that replications
  /// (seed sweep) change every random process coherently.
  std::uint64_t seed = 1;

  /// Sharded kernel (shard_driver.hpp): worker-thread count for the event
  /// loop. 0 = auto — runs of >= 16384 nodes get min(4, hw_concurrency/2)
  /// workers, smaller runs stay single-threaded (coordination does not
  /// amortize). 1 forces the plain kernel. The DTNCACHE_SHARDS environment
  /// variable overrides this field. Energy runs and non-shardable schemes
  /// (invalidation) always fall back to the plain kernel. Output is
  /// byte-identical at every setting — see tests/runner/shard_equivalence.
  std::size_t shards = 0;
  /// Test hook: explicit node→shard map (size = node count). The
  /// equivalence suite passes adversarial partitions here; empty selects
  /// the community-aware plan (shard_plan.hpp).
  std::vector<std::uint32_t> shardMapOverride;

  /// Structured event tracing (runtime-only, like `externalTrace`): when
  /// set, every instrumented seam emits typed JSONL events into this
  /// caller-owned tracer. Null (the default) keeps the hot paths at a
  /// single pointer compare per site. Counters are always collected — see
  /// ExperimentOutput::counters.
  obs::Tracer* tracer = nullptr;
};

struct ExperimentOutput {
  std::string scheme;
  metrics::RunResults results;
  trace::TraceStats traceStats;

  // Hierarchical-scheme internals (zero for baselines).
  std::size_t replicationAssignments = 0;
  double meanPredictedProbability = 0.0;
  double minPredictedProbability = 0.0;
  std::size_t unmetNodes = 0;
  std::size_t maxHierarchyDepth = 0;
  std::size_t reparentCount = 0;
  std::size_t pullsIssued = 0;       ///< Pull baseline only
  std::size_t churnTransitions = 0;  ///< churn runs only
  std::size_t churnRepairs = 0;      ///< hierarchical scheme under churn
  std::size_t contactsSuppressed = 0;

  // Energy runs only.
  std::size_t depletedNodes = 0;
  sim::SimTime firstDepletionTime = 0.0;  ///< +inf while everyone lives
  double meanRemainingBattery = 0.0;
  double minRemainingBattery = 0.0;

  // Simulation-kernel health (perf trajectory, not protocol results —
  // deterministic, but excluded from result-sink columns; see
  // docs/performance.md and bench/bench_kernel.cpp).
  std::size_t peakPendingEvents = 0;
  std::uint64_t eventsProcessed = 0;

  /// Sharded-kernel coordination stats (all zero for plain runs). Kept out
  /// of `counters` so registry snapshots stay byte-identical across shard
  /// counts.
  ShardStats shardStats;

  /// Observability registry snapshot: every standard counter (name → value,
  /// sorted by name; the full set is pre-registered so all schemes report
  /// identical columns) and the wall-clock timers (nondeterministic — result
  /// sinks only render them alongside the other wall-clock fields).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<obs::TimerSnapshot> timers;
};

ExperimentOutput runExperiment(const ExperimentConfig& config);

/// The synthetic world trace runExperiment replays: `config.trace` with the
/// master seed mixed into its seed. The warm-up trace derives from it, so
/// jobs with equal world trace configs share both generated traces (sweeps
/// group their dispatch by it). Ignored by runExperiment when
/// `externalTrace` is set.
trace::SyntheticTraceConfig worldTraceConfig(const ExperimentConfig& config);

/// Convenience: same config, each scheme in `schemes` (default all).
std::vector<ExperimentOutput> runSchemeComparison(ExperimentConfig config,
                                                  std::vector<SchemeKind> schemes = {});

}  // namespace dtncache::runner
