#pragma once

/// \file refresh_scheme.hpp
/// Extension point for cache-freshness maintenance schemes.
///
/// The cooperative-caching substrate owns caches, queries, and forwarding;
/// a RefreshScheme decides *which contacts carry which version pushes*.
/// The paper's hierarchical scheme (core/), and every baseline (baselines/),
/// implement this interface; a run wires exactly one scheme into the stack.

#include <string>

#include "data/item.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "trace/contact.hpp"

namespace dtncache::cache {

class CooperativeCache;

/// The recurring timers a scheme can own, for timerScope() classification.
enum class TimerKind {
  kMaintenance,  ///< the scheme's periodic tick (onStart-scheduled)
  kNewVersion,   ///< source version bumps (data::SourceProcess + onNewVersion)
};

class RefreshScheme {
 public:
  virtual ~RefreshScheme() = default;

  /// Scheme name for reports ("Hierarchical", "Epidemic", ...).
  virtual std::string name() const = 0;

  /// Called once, after the substrate has computed caching-node sets and
  /// (optionally) warm-started caches, before any contact is processed.
  virtual void onStart(CooperativeCache& cache) { (void)cache; }

  /// Source created a new version of `item` at time t.
  virtual void onNewVersion(CooperativeCache& cache, data::ItemId item, data::Version v,
                            sim::SimTime t) {
    (void)cache;
    (void)item;
    (void)v;
    (void)t;
  }

  /// Nodes a and b are in contact; push whatever the scheme's rules allow,
  /// through `channel` (which enforces the contact's byte budget).
  virtual void onContact(CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                         net::ContactChannel& channel) = 0;

  /// Inert-contact contract: a scheme is shardable when onContact is a
  /// no-op — writes no state, moves no bytes, bumps no counter, emits no
  /// event, reads no estimator — whenever *neither* endpoint is active
  /// (CooperativeCache::nodeProtocolActive: holds unexpired cached copies,
  /// buffers live messages, is a source, or satisfies contactActive()).
  /// Two callers rely on it: CooperativeCache::handleContact skips
  /// onContact for such pairs on the serial path, and the sharded kernel
  /// (runner/shard_driver) runs them on worker threads. Invalidation
  /// gossips version vectors on every contact regardless of activity, so it
  /// opts out: every contact reaches its onContact, on the plain
  /// single-threaded kernel.
  virtual bool shardable() const { return true; }

  /// Scheme-specific half of the driver's activity predicate: true when the
  /// scheme keeps per-node state at `n` that a contact could touch even
  /// though `n` caches and buffers nothing (Flooding's relay copies).
  /// Queried by the coordinator's fence scan and — read-only — by worker
  /// threads classifying inside handleContact; implementations must not
  /// mutate on query.
  virtual bool contactActive(NodeId n) const {
    (void)n;
    return false;
  }

  /// Sharded-kernel scope of the scheme's recurring timers. kShardLocal lets
  /// the coordinator run the timer without quiescing workers, so return it
  /// only when the callback provably commutes with worker-executed boring
  /// contacts: it must not mutate stores, buffers, churn up-state, or
  /// anything contactActive()/nodeProtocolActive reads, and must not read
  /// estimator pair state (which workers write). Defaults: version bumps are
  /// shard-local (the base onNewVersion is a no-op and the source's own
  /// bookkeeping is coordinator-only — a scheme that overrides onNewVersion
  /// with state-touching work MUST also override this to return kFence for
  /// kNewVersion); maintenance ticks are fences unless a scheme proves
  /// otherwise (core::HierarchicalScheme does, in oracle-rates mode).
  virtual sim::EventScope timerScope(TimerKind kind) const {
    return kind == TimerKind::kNewVersion ? sim::EventScope::kShardLocal
                                          : sim::EventScope::kFence;
  }
};

}  // namespace dtncache::cache
