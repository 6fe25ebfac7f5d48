#include "trace/trace_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <mutex>
#include <vector>

namespace dtncache::trace {

namespace {

struct Entry {
  std::uint64_t id = 0;  ///< stable name for the generating caller
  SyntheticTraceConfig config;
  bool contactsOnly = false;  ///< the trace's rates and community are empty
  /// Set by the generating caller; waiters block on it. Always holds one
  /// reference to the trace once it has a value.
  std::shared_future<std::shared_ptr<const SyntheticTrace>> trace;
  bool ready = false;  ///< has a value (failed generations are erased)
  std::uint64_t lastUse = 0;
};

struct Cache {
  std::mutex mu;
  std::vector<Entry> entries;
  std::uint64_t clock = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

Cache& cache() {
  static Cache c;
  return c;
}

/// Idle entries kept beyond those in use: one experiment's world plus its
/// warm-up, so back-to-back runs of one config still hit.
constexpr std::size_t kIdleKept = 2;

/// No caller holds the trace: the future's own reference is the only one.
/// Hits on a ready entry copy the trace under the lock, so they always
/// count. A waiter still copying it out of the future does not; evicting
/// its entry then only costs a later call a regeneration of the same bytes.
bool idle(const Entry& e) { return e.ready && e.trace.get().use_count() == 1; }

/// Move all but the kIdleKept most recently used idle entries into
/// `evicted`, which the caller destroys after releasing the lock.
void trimIdle(Cache& c, std::vector<Entry>& evicted) {
  std::vector<std::uint64_t> idleUses;
  for (const Entry& e : c.entries)
    if (idle(e)) idleUses.push_back(e.lastUse);
  if (idleUses.size() <= kIdleKept) return;
  std::nth_element(idleUses.begin(), idleUses.begin() + (kIdleKept - 1), idleUses.end(),
                   std::greater<>());
  const std::uint64_t oldestKept = idleUses[kIdleKept - 1];
  const auto keep = std::stable_partition(c.entries.begin(), c.entries.end(), [&](const Entry& e) {
    return !idle(e) || e.lastUse >= oldestKept;
  });
  std::move(keep, c.entries.end(), std::back_inserter(evicted));
  c.entries.erase(keep, c.entries.end());
}

/// The memo behind generateShared() and contactsShared(), keyed by
/// (config, contactsOnly).
std::shared_ptr<const SyntheticTrace> shared(const SyntheticTraceConfig& config,
                                             bool contactsOnly) {
  Cache& c = cache();
  std::vector<Entry> evicted;  // destroyed after the lock is released
  std::shared_ptr<const SyntheticTrace> held;
  std::shared_future<std::shared_ptr<const SyntheticTrace>> pending;
  std::promise<std::shared_ptr<const SyntheticTrace>> promise;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    const auto it = std::find_if(c.entries.begin(), c.entries.end(),
                                 [&](const Entry& e) {
                                   return e.config == config && e.contactsOnly == contactsOnly;
                                 });
    if (it != c.entries.end()) {
      ++c.hits;
      it->lastUse = ++c.clock;
      // A ready trace is copied before the trim below, so it counts as held.
      if (it->ready)
        held = it->trace.get();
      else
        pending = it->trace;
    } else {
      ++c.misses;
      id = ++c.clock;
      c.entries.push_back(
          Entry{id, config, contactsOnly, promise.get_future().share(), false, id});
    }
    trimIdle(c, evicted);
  }
  if (held) return held;
  // Another caller is generating this config: wait for its result (or its
  // exception) outside the lock.
  if (pending.valid()) return pending.get();

  // Generate outside the lock: workers on other configs are not serialized
  // behind this one, and workers on this config wait on the entry's future.
  std::shared_ptr<const SyntheticTrace> fresh;
  try {
    SyntheticTrace made;
    if (contactsOnly)
      made.trace = generateContacts(config);
    else
      made = generate(config);
    fresh = std::make_shared<const SyntheticTrace>(std::move(made));
  } catch (...) {
    // Every waiter gets the exception; the entry goes, so a later call
    // retries instead of finding a failed result.
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(c.mu);
    std::erase_if(c.entries, [id](const Entry& e) { return e.id == id; });
    throw;
  }
  promise.set_value(fresh);
  std::lock_guard<std::mutex> lock(c.mu);
  for (Entry& e : c.entries)  // absent if clearTraceCache() ran meanwhile
    if (e.id == id) e.ready = true;
  return fresh;
}

}  // namespace

std::shared_ptr<const SyntheticTrace> generateShared(const SyntheticTraceConfig& config) {
  return shared(config, /*contactsOnly=*/false);
}

std::shared_ptr<const SyntheticTrace> contactsShared(const SyntheticTraceConfig& config) {
  return shared(config, /*contactsOnly=*/true);
}

namespace {

/// Identity + content fingerprint of an external trace. The address alone
/// is unsafe (a reloaded trace can land on a recycled allocation), so mix
/// in the cheap invariants and a strided FNV-1a sample of the contact
/// records; any in-place edit of a sampled record, the size, or the
/// duration changes the key.
struct ExternalKey {
  const ContactTrace* ptr = nullptr;
  std::size_t nodeCount = 0;
  std::size_t contactCount = 0;
  std::uint64_t durationBits = 0;
  std::uint64_t digest = 0;

  bool operator==(const ExternalKey& o) const {
    return ptr == o.ptr && nodeCount == o.nodeCount && contactCount == o.contactCount &&
           durationBits == o.durationBits && digest == o.digest;
  }
};

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

ExternalKey externalKeyOf(const ContactTrace& trace) {
  ExternalKey key;
  key.ptr = &trace;
  key.nodeCount = trace.nodeCount();
  key.contactCount = trace.contacts().size();
  key.durationBits = bitsOf(trace.duration());
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over sampled contacts
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  const auto& contacts = trace.contacts();
  const std::size_t samples = std::min<std::size_t>(contacts.size(), 64);
  const std::size_t stride = samples > 0 ? std::max<std::size_t>(contacts.size() / samples, 1) : 1;
  for (std::size_t i = 0; i < contacts.size(); i += stride) {
    const Contact& c = contacts[i];
    mix((static_cast<std::uint64_t>(c.a) << 32) | c.b);
    mix(bitsOf(c.start));
    mix(bitsOf(c.duration));
  }
  key.digest = h;
  return key;
}

struct ExternalEntry {
  ExternalKey key;
  std::shared_ptr<const SyntheticTrace> trace;
  std::uint64_t lastUse = 0;
};

struct ExternalCache {
  std::mutex mu;
  std::vector<ExternalEntry> entries;
  std::uint64_t clock = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

ExternalCache& externalCache() {
  static ExternalCache c;
  return c;
}

/// A process rarely juggles more than a couple of loaded traces at once.
constexpr std::size_t kMaxExternalEntries = 4;

}  // namespace

std::shared_ptr<const SyntheticTrace> externalShared(const ContactTrace& trace) {
  const ExternalKey key = externalKeyOf(trace);
  ExternalCache& c = externalCache();
  {
    std::lock_guard<std::mutex> lock(c.mu);
    for (ExternalEntry& e : c.entries) {
      if (e.key == key) {
        e.lastUse = ++c.clock;
        ++c.hits;
        return e.trace;
      }
    }
    ++c.misses;
  }

  // Copy + fit outside the lock. Two callers racing on one trace may both
  // fit it; the results are identical, so the loser's copy is dropped.
  auto fresh = std::make_shared<SyntheticTrace>();
  fresh->trace = trace;
  fresh->rates = RateMatrix::fitFromTrace(fresh->trace);
  std::shared_ptr<const SyntheticTrace> result = std::move(fresh);

  std::lock_guard<std::mutex> lock(c.mu);
  for (ExternalEntry& e : c.entries) {
    if (e.key == key) {
      e.lastUse = ++c.clock;
      return e.trace;
    }
  }
  if (c.entries.size() >= kMaxExternalEntries) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < c.entries.size(); ++i)
      if (c.entries[i].lastUse < c.entries[victim].lastUse) victim = i;
    c.entries.erase(c.entries.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  c.entries.push_back(ExternalEntry{key, result, ++c.clock});
  return result;
}

TraceCacheStats externalTraceCacheStats() {
  ExternalCache& c = externalCache();
  std::lock_guard<std::mutex> lock(c.mu);
  return TraceCacheStats{c.hits, c.misses, c.entries.size()};
}

void clearExternalTraceCache() {
  ExternalCache& c = externalCache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.clock = 0;
  c.hits = 0;
  c.misses = 0;
}

TraceCacheStats traceCacheStats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  return TraceCacheStats{c.hits, c.misses, c.entries.size()};
}

void clearTraceCache() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
  c.clock = 0;
  c.hits = 0;
  c.misses = 0;
}

}  // namespace dtncache::trace
