#include "core/hierarchical_scheme.hpp"

#include <algorithm>

#include "core/freshness.hpp"
#include "sim/assert.hpp"

namespace dtncache::core {

namespace {

/// Structural equality of two hierarchies: same root, same node set (BFS
/// order compares it canonically) and same parent/children links including
/// child order. Used by rebuilds to keep the old object — and its revision —
/// when a reconstruction lands on the identical tree, so plan keys and event
/// streams do not churn on no-op rebuilds.
bool sameStructure(const RefreshHierarchy& a, const RefreshHierarchy& b) {
  if (a.root() != b.root() || a.memberCount() != b.memberCount()) return false;
  const auto& below = a.membersBelowRoot();
  if (below != b.membersBelowRoot()) return false;
  if (a.childrenOf(a.root()) != b.childrenOf(b.root())) return false;
  for (const NodeId n : below)
    if (a.parentOf(n) != b.parentOf(n) || a.childrenOf(n) != b.childrenOf(n))
      return false;
  return true;
}

}  // namespace

HierarchicalRefreshScheme::HierarchicalRefreshScheme(HierarchicalConfig config,
                                                     const trace::RateMatrix* oracleRates)
    : config_(config), oracleRates_(oracleRates) {
  DTNCACHE_CHECK_MSG(!config_.useOracleRates || oracleRates_ != nullptr,
                     "useOracleRates requires an oracle rate matrix");
}

void HierarchicalRefreshScheme::setObservability(obs::Tracer* tracer,
                                                 obs::Registry* registry) {
  tracer_ = tracer;
  if (registry == nullptr) {
    ctrMaintenanceRuns_ = nullptr;
    ctrReparents_ = nullptr;
    ctrRelayInjected_ = nullptr;
    ctrChurnRepairs_ = nullptr;
    ctrPlanHelpers_ = nullptr;
    ctrPlanUnmet_ = nullptr;
    ctrDirtyPairs_ = nullptr;
    ctrSkipped_ = nullptr;
    ctrPlanCacheHits_ = nullptr;
    maintenanceTimer_ = nullptr;
    return;
  }
  ctrMaintenanceRuns_ = &registry->counter("core.maintenance.runs");
  ctrReparents_ = &registry->counter("core.reparent.count");
  ctrRelayInjected_ = &registry->counter("core.relay.injected");
  ctrChurnRepairs_ = &registry->counter("core.churn.repairs");
  ctrPlanHelpers_ = &registry->counter("core.plan.helpers");
  ctrPlanUnmet_ = &registry->counter("core.plan.unmet");
  ctrDirtyPairs_ = &registry->counter("core.maintenance.dirty_pairs");
  ctrSkipped_ = &registry->counter("core.maintenance.skipped");
  ctrPlanCacheHits_ = &registry->counter("core.plan.cache_hits");
  maintenanceTimer_ = &registry->timer("core.maintenance");
}

void HierarchicalRefreshScheme::emitPlanOutcome(data::ItemId item, sim::SimTime t,
                                                const ReplicationPlan& plan) {
  if (ctrPlanHelpers_ != nullptr) ctrPlanHelpers_->add(plan.totalAssignments());
  if (ctrPlanUnmet_ != nullptr) ctrPlanUnmet_->add(plan.unmetNodes().size());
  DTNCACHE_EVENT(tracer_, obs::EventKind::kPlan, t, {"item", item},
                 {"helpers", plan.totalAssignments()}, {"unmet", plan.unmetNodes().size()});
}

void HierarchicalRefreshScheme::replayPlan(data::ItemId item, sim::SimTime t,
                                           const ReplicationPlan& plan) {
  for (const ReplicationPlan::Assignment& a : plan.assignmentLog())
    DTNCACHE_EVENT(tracer_, obs::EventKind::kHelperAssign, t, {"item", item},
                   {"target", a.target}, {"helper", a.helper},
                   {"p", a.probabilityAfter});
  emitPlanOutcome(item, t, plan);
}

void HierarchicalRefreshScheme::replan(cache::CooperativeCache& cache, data::ItemId item,
                                       sim::SimTime t, const RateFn& rate,
                                       bool cacheable) {
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  ReplicationPlan plan = planReplication(hierarchies_[item], rate, tau,
                                         config_.replication, PlanTrace{tracer_, item, t});
  const ReplicationPlan& stored =
      cacheable && planCacheEnabled()
          ? planCache_.store(item,
                             PlanCache::Key{depVersion(item), hierarchyRev_[item], tau},
                             std::move(plan))
          : planCache_.storeUncached(item, std::move(plan));
  emitPlanOutcome(item, t, stored);
}

RateFn HierarchicalRefreshScheme::planningRateFn() const {
  if (config_.useOracleRates) {
    const trace::RateMatrix* m = oracleRates_;
    return [m](NodeId i, NodeId j) { return m->rate(i, j); };
  }
  const trace::RateMatrix* m = &rateSnapshot_;
  return [m](NodeId i, NodeId j) { return i == j ? 0.0 : m->rate(i, j); };
}

RateFn HierarchicalRefreshScheme::liveRateFn(cache::CooperativeCache& cache,
                                             sim::SimTime t) const {
  if (config_.useOracleRates) {
    const trace::RateMatrix* m = oracleRates_;
    return [m](NodeId i, NodeId j) { return m->rate(i, j); };
  }
  trace::ContactRateEstimator* est = &cache.estimator();
  return [est, t](NodeId i, NodeId j) { return est->rate(i, j, t); };
}

std::uint64_t HierarchicalRefreshScheme::depVersion(data::ItemId item) const {
  if (config_.useOracleRates) return 0;  // oracle rates never move
  std::uint64_t v = 0;
  for (const NodeId n : itemDeps_[item]) v = std::max(v, rowVersion_[n]);
  return v;
}

void HierarchicalRefreshScheme::touchHierarchy(data::ItemId item) {
  ++hierarchyRev_[item];
  repairSettled_[item] = 0;
}

trace::SnapshotStats HierarchicalRefreshScheme::refreshRateState(
    cache::CooperativeCache& cache, sim::SimTime t) {
  if (config_.useOracleRates) {
    planningLive_ = false;  // the oracle matrix is the planning source
    return {};              // constant inputs: nothing to version
  }
  trace::ContactRateEstimator& est = cache.estimator();
  // Incremental bookkeeping only pays for itself when skips are possible.
  // A cumulative-mode estimator moves every seen pair's rate every tick
  // (rate = count / elapsed), so every item's dependency version changes
  // anyway — don't materialize the matrix at all: plan straight from the
  // live estimator exactly as the pre-incremental scheme did, and
  // pessimistically version every row (over-approximating change can only
  // suppress skips, never corrupt one). Plan reuse being disabled
  // (energy weights) degenerates the same way. The branch depends only on
  // the estimator's configuration, so the full-maintenance path takes it
  // identically and outputs cannot differ.
  if (est.config().mode == trace::EstimatorMode::kCumulative || !planCacheEnabled()) {
    trace::SnapshotStats stats;
    stats.dirtyPairs = est.dirtyPairCount() + est.timeVaryingPairCount();
    ++rateVersion_;
    for (auto& v : rowVersion_) v = rateVersion_;
    planningLive_ = true;
    return stats;
  }
  planningLive_ = false;
  // Under the escape hatch, force the full matrix rewrite: values, stats
  // and changed-row reporting are identical by construction, so the
  // full-vs-incremental sweep test cross-checks the estimator's
  // incremental path.
  const trace::SnapshotStats stats = est.snapshotInto(rateSnapshot_, t, &changedNodes_,
                                                     /*force=*/config_.fullMaintenance);
  if (stats.changedPairs > 0) {
    ++rateVersion_;
    for (const NodeId nd : changedNodes_) rowVersion_[nd] = rateVersion_;
  }
  return stats;
}

void HierarchicalRefreshScheme::rebuildItem(cache::CooperativeCache& cache,
                                            data::ItemId item, sim::SimTime t) {
  const auto rate = planningLive_ ? liveRateFn(cache, t) : planningRateFn();
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  std::vector<NodeId> members;
  for (NodeId n : cache.cachingNodesOf(item))
    if (!live_ || live_(n)) members.push_back(n);
  RefreshHierarchy rebuilt =
      RefreshHierarchy::build(cache.sourceOf(item), members, rate, tau, config_.hierarchy);
  if (!sameStructure(rebuilt, hierarchies_[item])) {
    hierarchies_[item] = std::move(rebuilt);
    touchHierarchy(item);
  }
  replan(cache, item, t, rate, /*cacheable=*/true);
}

void HierarchicalRefreshScheme::localRepairItem(cache::CooperativeCache& cache,
                                                data::ItemId item, sim::SimTime t) {
  const auto rate = planningLive_ ? liveRateFn(cache, t) : planningRateFn();
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  RefreshHierarchy& h = hierarchies_[item];

  // Each member independently evaluates its own parent edge — the only
  // structural knowledge a node needs is the candidate parents' chains,
  // which the metadata handshake carries in a deployment. Snapshot the
  // member order: repairs re-parent mid-loop, which invalidates the
  // hierarchy's cached BFS list.
  const std::vector<NodeId> members = h.membersBelowRoot();
  const std::size_t reparentsBefore = reparentCount_;
  for (NodeId n : members) {
    const double current = chainRefreshProbability(h.chainRates(n, rate), tau);
    NodeId bestParent = kNoNode;
    double bestScore = current;
    auto considerParent = [&](NodeId p) {
      if (p == n || p == h.parentOf(n)) return;
      if (h.isAncestor(n, p)) return;  // would create a cycle
      if (h.childrenOf(p).size() >= config_.hierarchy.fanoutBound) return;
      auto chain = h.chainRates(p, rate);
      chain.push_back(rate(p, n));
      const double score = chainRefreshProbability(chain, tau);
      if (score > bestScore) {
        bestScore = score;
        bestParent = p;
      }
    };
    considerParent(h.root());
    for (NodeId p : h.membersBelowRoot()) considerParent(p);

    if (bestParent != kNoNode &&
        bestScore >= current * (1.0 + config_.repairImprovement)) {
      h.reparent(n, bestParent, config_.hierarchy.fanoutBound);
      touchHierarchy(item);
      ++reparentCount_;
      if (ctrReparents_ != nullptr) ctrReparents_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kReparent, t, {"item", item}, {"node", n},
                     {"parent", bestParent});
    }
  }
  // A pass that moved nothing is a fixed point of this (structure, rates)
  // input: until either moves again, repeating the pass is provably a no-op
  // and the maintenance tick may skip it.
  repairSettled_[item] = reparentsBefore == reparentCount_ ? 1 : 0;
  replan(cache, item, t, rate, /*cacheable=*/true);
}

void HierarchicalRefreshScheme::maintainItem(cache::CooperativeCache& cache,
                                             data::ItemId item, sim::SimTime t,
                                             std::size_t& skipped) {
  const std::uint64_t dep = depVersion(item);
  const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
  // Reuse is sound only when every maintenance input is provably unchanged
  // since this item's last evaluation: its dependency rows (dep version),
  // its tree (revision — churn repairs bump it), and — for local repair —
  // the pass being at a fixed point already. The caching sets are pinned
  // when the cooperative cache is built, so no other input can move.
  const bool mayReuse =
      planCacheEnabled() && haveMaintState_[item] != 0 &&
      dep == lastMaintDep_[item] && hierarchyRev_[item] == lastMaintRev_[item] &&
      (config_.maintenance != MaintenanceMode::kLocalRepair || repairSettled_[item] != 0);
  const ReplicationPlan* hit =
      mayReuse ? planCache_.find(item, PlanCache::Key{dep, hierarchyRev_[item], tau})
               : nullptr;
  if (hit != nullptr) {
    ++planCacheHits_;
    if (ctrPlanCacheHits_ != nullptr) ctrPlanCacheHits_->add();
    ++skipped;
    if (!config_.fullMaintenance) {
      // Incremental fast path: the tree is untouched and the cached plan is
      // replayed — events and counters exactly as a recompute would emit.
      replayPlan(item, t, *hit);
      return;
    }
  }

  // Recompute: an incremental miss, or the full-maintenance escape hatch
  // (which recomputes even on a hit, then verifies the cache was right).
  ReplicationPlan cachedCopy;
  const bool verify = config_.fullMaintenance && hit != nullptr;
  if (verify) cachedCopy = *hit;  // `hit` dangles once replan restores
  switch (config_.maintenance) {
    case MaintenanceMode::kRebuild:
      rebuildItem(cache, item, t);
      break;
    case MaintenanceMode::kLocalRepair:
      localRepairItem(cache, item, t);
      break;
    case MaintenanceMode::kStatic:
      break;  // unreachable: kStatic schedules no maintenance
  }
  hierarchies_[item].checkInvariants();
  lastMaintDep_[item] = dep;
  lastMaintRev_[item] = hierarchyRev_[item];
  haveMaintState_[item] = 1;
  if (verify)
    DTNCACHE_CHECK_MSG(planCache_.planOf(item).sameAs(cachedCopy),
                       "full-maintenance check: cached plan diverged for item " << item);
}

void HierarchicalRefreshScheme::runMaintenance(cache::CooperativeCache& cache,
                                               sim::SimTime t) {
  ++maintenanceRuns_;
  if (ctrMaintenanceRuns_ != nullptr) ctrMaintenanceRuns_->add();
  obs::ScopedTimer timed(maintenanceTimer_);
  const std::size_t reparentsBefore = reparentCount_;

  const trace::SnapshotStats stats = refreshRateState(cache, t);
  if (ctrDirtyPairs_ != nullptr) ctrDirtyPairs_->add(stats.dirtyPairs);

  std::size_t skipped = 0;
  for (data::ItemId item = 0; item < cache.catalog().size(); ++item)
    maintainItem(cache, item, t, skipped);
  skippedItems_ += skipped;
  if (ctrSkipped_ != nullptr) ctrSkipped_->add(skipped);

  DTNCACHE_EVENT(tracer_, obs::EventKind::kMaintenance, t,
                 {"items", cache.catalog().size()},
                 {"reparented", reparentCount_ - reparentsBefore});
}

void HierarchicalRefreshScheme::onStart(cache::CooperativeCache& cache) {
  const sim::SimTime now = cache.simulator().now();
  const std::size_t items = cache.catalog().size();
  hierarchies_.clear();
  hierarchies_.resize(items);
  planCache_.resize(items);
  hierarchyRev_.assign(items, 0);
  repairSettled_.assign(items, 0);
  lastMaintDep_.assign(items, 0);
  lastMaintRev_.assign(items, 0);
  haveMaintState_.assign(items, 0);
  rowVersion_.assign(cache.nodeCount(), 0);
  rateVersion_ = 0;

  // Dependency rows per item: the caching set plus the source. Fixed for
  // the run (the cooperative cache pins caching sets at start), so equal
  // row versions across these nodes prove an item's planning inputs —
  // member rates and every chain/candidate rate between them — unchanged.
  itemDeps_.assign(items, {});
  for (data::ItemId item = 0; item < items; ++item) {
    auto& deps = itemDeps_[item];
    const auto& cachingNodes = cache.cachingNodesOf(item);
    deps.assign(cachingNodes.begin(), cachingNodes.end());
    const NodeId source = cache.sourceOf(item);
    if (std::find(deps.begin(), deps.end(), source) == deps.end())
      deps.push_back(source);
  }

  refreshRateState(cache, now);
  for (data::ItemId item = 0; item < items; ++item) {
    rebuildItem(cache, item, now);
    lastMaintDep_[item] = depVersion(item);
    lastMaintRev_[item] = hierarchyRev_[item];
    haveMaintState_[item] = config_.maintenance == MaintenanceMode::kRebuild ? 1 : 0;
  }

  if (config_.maintenance != MaintenanceMode::kStatic) {
    cache.simulator().schedulePeriodic(
        config_.maintenancePeriod,
        [this, &cache](sim::SimTime t) { runMaintenance(cache, t); },
        config_.maintenancePeriod, timerScope(cache::TimerKind::kMaintenance));
  }
}

bool HierarchicalRefreshScheme::responsible(data::ItemId item, NodeId refresher,
                                            NodeId target) const {
  const RefreshHierarchy& h = hierarchies_[item];
  if (!h.isMember(refresher) || !h.isMember(target)) return false;
  return h.isResponsible(refresher, target) ||
         planCache_.planOf(item).isHelper(refresher, target);
}

void HierarchicalRefreshScheme::onContact(cache::CooperativeCache& cache, NodeId a, NodeId b,
                                          sim::SimTime t, net::ContactChannel& channel) {
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const auto va = cache.heldVersion(a, item, t);
    const auto vb = cache.heldVersion(b, item, t);
    if (va && (!vb || *va > *vb) && responsible(item, a, b))
      cache.pushVersion(a, b, item, t, channel, net::Traffic::kRefresh);
    else if (vb && (!va || *vb > *va) && responsible(item, b, a))
      cache.pushVersion(b, a, item, t, channel, net::Traffic::kRefresh);
  }
  if (config_.relayAssisted) {
    injectRelays(cache, a, b, t, channel);
    injectRelays(cache, b, a, t, channel);
  }
}

void HierarchicalRefreshScheme::targetsOf(data::ItemId item, NodeId refresher,
                                          std::vector<NodeId>& out) const {
  out.clear();
  const RefreshHierarchy& h = hierarchies_[item];
  if (!h.isMember(refresher)) return;
  const auto& children = h.childrenOf(refresher);
  out.insert(out.end(), children.begin(), children.end());
  const ReplicationPlan& plan = planCache_.planOf(item);
  for (NodeId n : h.membersBelowRoot())
    if (plan.isHelper(refresher, n)) out.push_back(n);
}

void HierarchicalRefreshScheme::injectRelays(cache::CooperativeCache& cache, NodeId holder,
                                             NodeId carrier, sim::SimTime t,
                                             net::ContactChannel& channel) {
  // Energy-aware: a nearly-drained carrier is not volunteered for relay
  // duty (it would pay rx now and tx at delivery).
  if (nodeWeight_ && nodeWeight_(carrier) < config_.minRelayCarrierBattery) return;
  const auto& fwd = cache.config().forwarding;
  const std::size_t items = cache.catalog().size();
  for (data::ItemId item = 0; item < items; ++item) {
    const auto held = cache.heldVersion(holder, item, t);
    if (!held) continue;
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;
    targetsOf(item, holder, targetsScratch_);
    for (NodeId target : targetsScratch_) {
      if (target == carrier) continue;  // direct push already handled
      const auto targetHeld = cache.heldVersion(target, item, t);
      if (targetHeld && *targetHeld >= *held) continue;

      // Strong direct edges need no relay help — save the bandwidth.
      const double mine = cache.estimator().rate(holder, target, t);
      if (trace::contactProbability(mine, tau) >= config_.relayWhenDirectBelow) continue;

      // Only hand to a strictly better carrier toward the target.
      const double theirs = cache.estimator().rate(carrier, target, t);
      if (!(theirs > mine * fwd.improvementFactor && theirs > 0.0)) continue;

      const std::uint64_t key = (static_cast<std::uint64_t>(item) << 44) ^
                                (static_cast<std::uint64_t>(target) << 32) ^
                                (*held & 0xffffffffull);
      std::uint32_t& used = relayBudgetSlot(key);
      if (used >= config_.relayCopiesPerVersion) continue;

      // Skip if the carrier already holds an equivalent copy in its buffer.
      bool duplicate = false;
      const net::MessageBuffer& carrierBuf = cache.bufferOf(carrier);
      for (std::uint32_t s = carrierBuf.firstSlot(); s != net::MessageBuffer::kNil;
           s = carrierBuf.nextSlot(s)) {
        const net::Message& m = carrierBuf.at(s);
        if (m.kind == net::MessageKind::kDataCopy && m.item == item && m.dst == target &&
            m.version >= *held) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;

      net::Message m;
      m.kind = net::MessageKind::kDataCopy;
      m.item = item;
      m.version = *held;
      m.dst = target;
      m.origin = holder;
      m.createdAt = t;
      m.deadline = t + config_.relayTtlFactor * tau;
      m.copiesLeft = 1;  // the bounded-replication budget is `used`, not spray
      m.payloadBytes = cache.catalog().spec(item).sizeBytes;
      m.category = net::Traffic::kRefresh;
      if (!channel.transfer(net::Traffic::kRefresh, m.wireBytes(), holder)) return;
      cache.injectMessage(carrier, m, t);
      ++used;
      ++relayInjections_;
      if (ctrRelayInjected_ != nullptr) ctrRelayInjected_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kRelayInject, t, {"item", item},
                     {"holder", holder}, {"carrier", carrier}, {"target", target},
                     {"version", *held});
    }
  }
}

void HierarchicalRefreshScheme::onNodeStateChanged(cache::CooperativeCache& cache,
                                                   NodeId node, bool up, sim::SimTime t) {
  // Event-driven repairs run between ticks, so they plan from the live
  // estimator (not the tick snapshot) exactly as before incremental
  // maintenance; the revision bump forces the next tick to re-evaluate.
  const auto rate = liveRateFn(cache, t);
  for (data::ItemId item = 0; item < cache.catalog().size(); ++item) {
    if (!cache.isCachingNode(node, item)) continue;
    RefreshHierarchy& h = hierarchies_[item];
    const sim::SimTime tau = cache.catalog().spec(item).refreshPeriod;

    if (!up) {
      if (!h.isMember(node)) continue;
      h.removeMember(node);  // children adopted by the grandparent
      touchHierarchy(item);
      ++churnRepairs_;
      if (ctrChurnRepairs_ != nullptr) ctrChurnRepairs_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kChurnRepair, t, {"item", item},
                     {"node", node}, {"up", false});
    } else {
      if (h.isMember(node)) continue;
      // Re-attach under the live parent with a free slot that maximizes the
      // end-to-end refresh probability. A tree always has a free slot.
      NodeId bestParent = kNoNode;
      double bestScore = -1.0;
      auto consider = [&](NodeId p) {
        if (h.childrenOf(p).size() >= config_.hierarchy.fanoutBound) return;
        auto chain = h.chainRates(p, rate);
        chain.push_back(rate(p, node));
        const double score = chainRefreshProbability(chain, tau);
        if (score > bestScore || (score == bestScore && p < bestParent)) {
          bestScore = score;
          bestParent = p;
        }
      };
      consider(h.root());
      for (NodeId p : h.membersBelowRoot()) consider(p);
      DTNCACHE_CHECK_MSG(bestParent != kNoNode, "no free slot to re-attach node");
      h.addMember(node, bestParent, config_.hierarchy.fanoutBound);
      touchHierarchy(item);
      ++churnRepairs_;
      if (ctrChurnRepairs_ != nullptr) ctrChurnRepairs_->add();
      DTNCACHE_EVENT(tracer_, obs::EventKind::kChurnRepair, t, {"item", item},
                     {"node", node}, {"up", true});
    }
    replan(cache, item, t, rate, /*cacheable=*/false);
    h.checkInvariants();
  }
}

const RefreshHierarchy& HierarchicalRefreshScheme::hierarchyOf(data::ItemId item) const {
  DTNCACHE_CHECK(item < hierarchies_.size());
  return hierarchies_[item];
}

const ReplicationPlan& HierarchicalRefreshScheme::planOf(data::ItemId item) const {
  return planCache_.planOf(item);
}

}  // namespace dtncache::core
