#pragma once

/// \file hierarchical_scheme.hpp
/// The paper's scheme: distributed hierarchical freshness maintenance with
/// probabilistic replication.
///
/// Per item, the caching nodes are arranged in a RefreshHierarchy rooted at
/// the source, plus the helper assignments of a ReplicationPlan. On every
/// contact, a node pushes its version of an item to the peer iff
///   (a) the peer is in its responsibility set (tree child or helper
///       target), and
///   (b) the metadata handshake showed the peer's version is older.
/// Hierarchies are built from contact-rate knowledge — either the shared
/// online estimator (default; imperfect, improves over time) or an oracle
/// rate matrix (ablation F9) — and maintained periodically:
///   - kRebuild: reconstruct tree + plan from current estimates (the
///     centralized upper bound for maintenance quality);
///   - kLocalRepair: every node re-evaluates only its own parent edge and
///     re-parents when a better parent improves its end-to-end refresh
///     probability materially — the distributed operation the paper's
///     title refers to;
///   - kStatic: never touched after construction (ablation).

#include <functional>
#include <memory>
#include <vector>

#include "cache/coop_cache.hpp"
#include "cache/refresh_scheme.hpp"
#include "core/hierarchy.hpp"
#include "core/plan_cache.hpp"
#include "core/replication.hpp"
#include "core/slot_index.hpp"
#include "trace/estimator.hpp"
#include "trace/rate_matrix.hpp"

namespace dtncache::core {

enum class MaintenanceMode { kRebuild, kLocalRepair, kStatic };

struct HierarchicalConfig {
  HierarchyConfig hierarchy;
  ReplicationConfig replication;
  MaintenanceMode maintenance = MaintenanceMode::kLocalRepair;
  sim::SimTime maintenancePeriod = sim::hours(12);
  /// Relative improvement in end-to-end refresh probability required before
  /// a local repair re-parents (hysteresis against estimate noise).
  double repairImprovement = 0.10;
  /// Plan from the true rate matrix instead of the estimator (F9 oracle arm).
  bool useOracleRates = false;

  /// Relay-assisted delivery: a responsible node that meets a better
  /// carrier toward its (absent) target hands it a bounded number of
  /// refresh copies, which travel store-carry-forward like any DTN message.
  /// This is the opportunistic multi-hop delivery the paper's substrate
  /// assumes; turning it off makes every responsibility edge contact-direct
  /// (ablation arm in F8).
  bool relayAssisted = true;
  /// Max relay copies injected per (item, target, version).
  std::uint32_t relayCopiesPerVersion = 2;
  /// Only spend relay bandwidth on weak edges: inject relays for a target
  /// only when the direct responsible edge alone delivers within τ with
  /// probability below this threshold (strong edges need no help).
  double relayWhenDirectBelow = 0.9;
  /// Relay-copy TTL as a multiple of the item's refresh period (after one
  /// period a newer version exists, so stale relay copies self-purge).
  double relayTtlFactor = 1.0;
  /// With an energy weight installed, carriers below this remaining-battery
  /// fraction are not handed relay copies.
  double minRelayCarrierBattery = 0.15;

  /// Escape hatch: disable the incremental-maintenance fast paths and run
  /// the full recompute (every tick re-snapshots, rebuilds, and replans
  /// every item) while keeping the incremental bookkeeping — dirty-pair
  /// stats, skip decisions, and cache probes are still evaluated, and when
  /// a tick *would* have been skipped the recomputed result is checked
  /// against the cached one, so the two paths stay byte-identical in every
  /// output and counter and tests/sweep/sweep_engine_test can diff them.
  /// Deliberately not a config_io key: fingerprints must match across paths.
  bool fullMaintenance = false;
};

class HierarchicalRefreshScheme : public cache::RefreshScheme {
 public:
  /// `oracleRates` is required iff config.useOracleRates; not owned.
  explicit HierarchicalRefreshScheme(HierarchicalConfig config,
                                     const trace::RateMatrix* oracleRates = nullptr);

  std::string name() const override { return "Hierarchical"; }
  void onStart(cache::CooperativeCache& cache) override;
  void onContact(cache::CooperativeCache& cache, NodeId a, NodeId b, sim::SimTime t,
                 net::ContactChannel& channel) override;

  /// In oracle-rates mode the maintenance tick commutes with worker-run
  /// boring contacts: refreshRateState returns before touching the
  /// estimator (planning reads the const oracle matrix, depVersion is
  /// constant 0), and maintainItem/rebuildItem/localRepairItem only mutate
  /// scheme-owned planning state (hierarchies, plan cache, counters, tracer)
  /// — never stores, buffers, or anything the activity fence reads. So the
  /// sharded driver may run it without a barrier. Live-estimator mode reads
  /// snapshotInto (worker-written pair state) and stays a fence.
  sim::EventScope timerScope(cache::TimerKind kind) const override {
    if (kind == cache::TimerKind::kMaintenance && config_.useOracleRates)
      return sim::EventScope::kShardLocal;
    return RefreshScheme::timerScope(kind);
  }

  /// Churn hook: a caching member left (its children are adopted locally)
  /// or returned (it re-attaches under the best live parent with a free
  /// slot). Replication plans for affected items are recomputed. Wire this
  /// to ChurnProcess::addListener.
  void onNodeStateChanged(cache::CooperativeCache& cache, NodeId node, bool up,
                          sim::SimTime t);
  std::size_t churnRepairs() const { return churnRepairs_; }

  /// Under churn, periodic rebuilds must not re-admit down members; install
  /// the liveness predicate (ChurnProcess::isUp) before onStart.
  void setLivenessPredicate(std::function<bool(NodeId)> live) { live_ = std::move(live); }

  /// Energy-aware planning: weight nodes by remaining battery fraction.
  /// Helper selection ranks candidates by contribution × weight, and relay
  /// copies are not handed to carriers below `minRelayCarrierBattery` —
  /// the two places the scheme decides who spends energy for whom.
  /// Install before onStart to cover the initial plan.
  void setEnergyWeight(std::function<double(NodeId)> weight) {
    nodeWeight_ = weight;
    config_.replication.helperWeight = std::move(weight);
  }

  /// Attach the observability layer (neither owned; both may be null).
  /// Events: plan / helper_assign on every (re)plan, reparent on local
  /// repair, relay_inject per relay handoff, churn_repair on membership
  /// flips, maintenance per periodic pass. Counters under core.*; the
  /// `core.maintenance` timer accumulates planning wall-clock.
  void setObservability(obs::Tracer* tracer, obs::Registry* registry);

  /// Planning-state inspection (tests, benches, examples).
  const RefreshHierarchy& hierarchyOf(data::ItemId item) const;
  const ReplicationPlan& planOf(data::ItemId item) const;
  const HierarchicalConfig& config() const { return config_; }
  std::size_t maintenanceRuns() const { return maintenanceRuns_; }
  std::size_t reparentCount() const { return reparentCount_; }
  std::size_t relayInjections() const { return relayInjections_; }

  /// Incremental-maintenance state inspection (tests, benches).
  /// Global rate-state version: bumped on every maintenance snapshot that
  /// changed at least one pair estimate.
  std::uint64_t rateVersion() const { return rateVersion_; }
  /// Maintenance evaluations answered from the plan cache.
  std::size_t planCacheHits() const { return planCacheHits_; }
  /// (item, tick) maintenance evaluations skipped outright.
  std::size_t itemsSkipped() const { return skippedItems_; }
  /// Whether the full-recompute escape hatch is active.
  bool fullMaintenanceActive() const { return config_.fullMaintenance; }

 private:
  /// Rate function for periodic planning: reads the maintained snapshot
  /// matrix (or the oracle), which at tick times holds exactly the live
  /// estimator's values — so snapshot-backed planning is bit-identical to
  /// the live closure it replaces, while making plan reuse sound (the
  /// inputs are versioned).
  RateFn planningRateFn() const;
  /// Rate function for event-driven (churn) repairs between ticks: the live
  /// estimator at time `t`, exactly as before incremental maintenance.
  RateFn liveRateFn(cache::CooperativeCache& cache, sim::SimTime t) const;
  /// Refresh the snapshot matrix from the estimator and bump the rate/row
  /// versions of changed rows; returns the snapshot's work stats.
  trace::SnapshotStats refreshRateState(cache::CooperativeCache& cache, sim::SimTime t);
  /// Max row version over the item's dependency rows (members + source).
  std::uint64_t depVersion(data::ItemId item) const;
  /// Record a structural change to the item's tree: bump its revision and
  /// clear the repair-settled flag.
  void touchHierarchy(data::ItemId item);
  /// One item's share of a maintenance tick: skip, replay from cache, or
  /// recompute (and, under the escape hatch, verify cache hits).
  void maintainItem(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t,
                    std::size_t& skipped);
  void rebuildItem(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t);
  void localRepairItem(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t);
  void runMaintenance(cache::CooperativeCache& cache, sim::SimTime t);
  /// Is `refresher` responsible for pushing to `target` for this item?
  bool responsible(data::ItemId item, NodeId refresher, NodeId target) const;
  /// All targets `refresher` is responsible for (children + helper
  /// targets), appended to `out` (cleared first). Out-parameter so the
  /// per-contact relay pass can reuse one scratch vector instead of
  /// allocating a result per (item, holder) evaluation.
  void targetsOf(data::ItemId item, NodeId refresher, std::vector<NodeId>& out) const;
  /// Hand bounded refresh copies for absent targets to a better carrier.
  void injectRelays(cache::CooperativeCache& cache, NodeId holder, NodeId carrier,
                    sim::SimTime t, net::ContactChannel& channel);

  /// Recompute (and trace) the item's replication plan, storing it in the
  /// plan cache — keyed on the current (dep version, hierarchy revision, τ)
  /// when `cacheable` (periodic maintenance), unkeyed for event-driven
  /// repairs whose inputs are not tick-versioned.
  void replan(cache::CooperativeCache& cache, data::ItemId item, sim::SimTime t,
              const RateFn& rate, bool cacheable);
  /// Counter adds + `plan` event for a freshly computed or replayed plan.
  void emitPlanOutcome(data::ItemId item, sim::SimTime t, const ReplicationPlan& plan);
  /// Re-emit a cached plan's helper_assign/plan events and counter adds —
  /// byte-identical to recomputing it.
  void replayPlan(data::ItemId item, sim::SimTime t, const ReplicationPlan& plan);
  /// Plan reuse is disabled while an energy weight is installed: battery
  /// fractions drain outside the versioned rate state, so no two ticks are
  /// provably equivalent and every tick replans (the pre-incremental cost).
  bool planCacheEnabled() const { return !config_.replication.helperWeight; }

  HierarchicalConfig config_;
  const trace::RateMatrix* oracleRates_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* ctrMaintenanceRuns_ = nullptr;
  obs::Counter* ctrReparents_ = nullptr;
  obs::Counter* ctrRelayInjected_ = nullptr;
  obs::Counter* ctrChurnRepairs_ = nullptr;
  obs::Counter* ctrPlanHelpers_ = nullptr;
  obs::Counter* ctrPlanUnmet_ = nullptr;
  obs::Counter* ctrDirtyPairs_ = nullptr;
  obs::Counter* ctrSkipped_ = nullptr;
  obs::Counter* ctrPlanCacheHits_ = nullptr;
  obs::Timer* maintenanceTimer_ = nullptr;
  std::vector<RefreshHierarchy> hierarchies_;  ///< per item
  PlanCache planCache_;                        ///< per item current plan + keyed reuse
  std::size_t maintenanceRuns_ = 0;
  std::size_t reparentCount_ = 0;
  std::size_t relayInjections_ = 0;
  std::size_t churnRepairs_ = 0;
  std::size_t planCacheHits_ = 0;
  std::size_t skippedItems_ = 0;
  std::function<bool(NodeId)> live_;
  std::function<double(NodeId)> nodeWeight_;

  /// Versioned rate state. The snapshot matrix is refreshed in place at
  /// every maintenance tick (dirty pairs only); rowVersion_[n] records the
  /// global rateVersion_ at which node n's row last changed, so an item's
  /// dependency version is the max over its member rows — equal versions
  /// between two ticks prove the item's planning inputs are unchanged.
  trace::RateMatrix rateSnapshot_;
  /// True when the current tick declined to materialize the snapshot (dense
  /// change or plan reuse disabled): periodic planning then reads the live
  /// estimator — identical values, since the snapshot, when taken, holds
  /// exactly the live estimator's rates at tick time.
  bool planningLive_ = true;
  std::uint64_t rateVersion_ = 0;
  std::vector<std::uint64_t> rowVersion_;
  std::vector<NodeId> changedNodes_;  ///< per-tick scratch from snapshotInto
  /// Per-item dependency rows (caching set ∪ source; fixed per run) and
  /// incremental bookkeeping: structural revision, repair fixed-point flag,
  /// and the (dep version, revision) the item was last maintained at.
  std::vector<std::vector<NodeId>> itemDeps_;
  std::vector<std::uint64_t> hierarchyRev_;
  std::vector<char> repairSettled_;
  std::vector<std::uint64_t> lastMaintDep_;
  std::vector<std::uint64_t> lastMaintRev_;
  std::vector<char> haveMaintState_;
  /// (item, target, version) → relay copies already injected. Flat-store
  /// pattern: the packed key indexes a dense count vector through the
  /// open-addressing index (one probe per relay evaluation, no hash-map
  /// node allocations).
  std::uint32_t& relayBudgetSlot(std::uint64_t key) {
    std::uint32_t slot = relayBudgetIndex_.find(key);
    if (slot == core::SlotIndex::kNoSlot) {
      slot = static_cast<std::uint32_t>(relayBudgetCounts_.size());
      relayBudgetCounts_.push_back(0);
      relayBudgetIndex_.insert(key, slot);
    }
    return relayBudgetCounts_[slot];
  }
  core::SlotIndex relayBudgetIndex_;
  std::vector<std::uint32_t> relayBudgetCounts_;
  /// Scratch for injectRelays' per-(item, holder) target list.
  mutable std::vector<NodeId> targetsScratch_;
};

}  // namespace dtncache::core
