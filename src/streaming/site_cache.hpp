// Cooperative site cache — the per-site depot cache index (ROADMAP's
// thousand-user item, in the spirit of the LBNL DPSS network data caches).
//
// Every client agent behind one LAN registers against a shared SiteCache.
// When any of them stages a view set onto a site depot it publishes the
// resulting exNode here, so every co-sited agent discovers the copy and
// serves it LAN-locally instead of restaging the same bytes over the WAN.
// Three mechanisms keep the index honest:
//
//   * single flight — N agents racing to (re)stage, or to fetch, the same
//     (ViewSetId, lod) across the WAN collapse to one WAN flight: the first
//     caller of begin_restage / begin_fetch becomes the leader and does the
//     work, everyone else queues a callback that fires when the leader calls
//     finish_restage / finish_fetch. Restages and fetches share one flight
//     table, keyed by kind as well, so a restage never parks on a fetch;
//   * lease-aware invalidation — entries carry the staging lease's expiry;
//     at that instant (a simulator timer, plus a lazy check on every
//     lookup) the entry is dropped and every registered listener is told,
//     so all co-sited agents forget the copy atomically: there is no
//     stale-serve window in which one agent still trusts a dead replica;
//   * capacity-bounded eviction — an optional byte budget over the tracked
//     copies, evicted LRU. Eviction only forgets the *index* entry (the
//     stager's own replica and lease stay valid), so it does not fan out.
//
// Thread safety: the index is mutex-guarded and the counters are atomic —
// agents on the simulator thread and tests hammering from a pool may call
// concurrently. Listener and flight callbacks are invoked outside the
// lock. Expiry timers touch the simulator and are therefore only scheduled
// when config.expiry_timers is set (off in the multi-threaded hammer).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exnode/exnode.hpp"
#include "lightfield/viewset.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"
#include "util/bytes.hpp"

namespace lon::streaming {

struct SiteCacheConfig {
  /// Byte budget over the tracked site copies; 0 = unbounded.
  std::uint64_t capacity_bytes = 0;
  /// Schedule a simulator timer at each entry's expiry so the whole site
  /// drops the copy the instant its lease runs out (not just on the next
  /// lookup). Disable for multi-threaded index hammers: the simulator is
  /// not thread-safe, the index is.
  bool expiry_timers = true;
};

class SiteCache {
 public:
  /// The index's metrics, declared here and nowhere else: each handle is
  /// bound to the registry metric `site.<field>`. Atomic, so any thread may
  /// read them while others use the index.
  struct Metrics {
    obs::Counter& lookups;
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& publishes;
    obs::Counter& invalidations;    ///< explicit invalidate() fanouts
    obs::Counter& expirations;      ///< lease-expiry fanouts (timer or lazy)
    obs::Counter& evictions;        ///< capacity evictions (no fanout)
    obs::Counter& restage_leaders;  ///< begin_restage calls that led
    obs::Counter& restage_joins;    ///< begin_restage calls that joined
    obs::Counter& restage_keys;     ///< distinct (id, lod) keys ever restaged
    obs::Counter& fetch_leaders;    ///< begin_fetch calls that led
    obs::Counter& fetch_joins;      ///< begin_fetch calls that joined
    obs::Counter& fetch_keys;       ///< distinct (id, lod) keys ever fetched
    obs::Counter& handoff_bytes;    ///< payload bytes handed leader -> followers
    obs::Gauge& entries;            ///< resident index entries now
    obs::Gauge& bytes;              ///< tracked payload bytes now
  };

  /// Fanout on expiry/invalidation: every co-sited agent drops its own
  /// derived state (staged entry, cached exNode) for (id, lod).
  using InvalidateListener =
      std::function<void(const lightfield::ViewSetId& id, int lod)>;
  /// Completion of a coalesced restage a follower joined.
  using RestageCallback = std::function<void(bool ok, const exnode::ExNode& exnode)>;
  /// What a leader hands its parked followers. A restage hands the staged
  /// copy's exNode. A fetch hands the payload slab (aliased, never copied),
  /// the exNode it was downloaded through, and the node the hand-off leaves
  /// from; a failed fetch hands a null payload, and each follower resolves
  /// on its own.
  struct Handoff {
    exnode::ExNode exnode;
    std::shared_ptr<const Bytes> payload;
    sim::NodeId leader = 0;
  };
  using FetchCallback = std::function<void(const Handoff& handoff)>;

  SiteCache(sim::Simulator& sim, SiteCacheConfig config = {},
            obs::Context* obs = nullptr);

  /// Registers an agent's invalidation listener; returns a removal token.
  std::size_t add_listener(InvalidateListener listener);
  void remove_listener(std::size_t token);

  /// Looks `id` up at tier `lod`. A lease already past expiry is dropped
  /// here (and fanned out) before the miss is reported, so even with
  /// timers off no caller can be served a dead copy.
  [[nodiscard]] std::optional<exnode::ExNode> lookup(const lightfield::ViewSetId& id,
                                                     int lod = 0);
  [[nodiscard]] bool contains(const lightfield::ViewSetId& id, int lod = 0) const;

  /// Publishes a freshly staged copy: `bytes` is its payload size (feeds
  /// the capacity budget), `expires_at` the staging lease's end.
  void publish(const lightfield::ViewSetId& id, int lod, const exnode::ExNode& exnode,
               std::uint64_t bytes, SimTime expires_at);

  /// Drops the entry and tells every listener the copy is dead (an agent
  /// saw a download from it fail). Safe when absent — the fanout still
  /// runs, so all co-sited agents drop their derived state together.
  void invalidate(const lightfield::ViewSetId& id, int lod = 0);

  /// Single-flight: returns true if the caller is the leader for
  /// (id, lod) and must perform the WAN copy itself (`on_done` is NOT
  /// queued for a leader). Returns false if a restage is already in
  /// flight; `on_done` then fires when the leader finishes.
  bool begin_restage(const lightfield::ViewSetId& id, int lod, RestageCallback on_done);
  /// Leader's completion: resolves every queued follower callback.
  void finish_restage(const lightfield::ViewSetId& id, int lod, bool ok,
                      const exnode::ExNode& exnode);

  /// The same single flight for an agent fetch that would leave the site
  /// (DVS query or WAN download): true = the caller leads and fetches;
  /// false = `on_done` fires when the leader calls finish_fetch.
  bool begin_fetch(const lightfield::ViewSetId& id, int lod, FetchCallback on_done);
  /// Leader's completion: hands `handoff` (a null payload = the leader
  /// failed) to every parked follower.
  void finish_fetch(const lightfield::ViewSetId& id, int lod, const Handoff& handoff);

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] std::size_t size() const;

 private:
  struct Key {
    lightfield::ViewSetId id;
    int lod = 0;
    bool operator==(const Key& other) const {
      return id == other.id && lod == other.lod;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return lightfield::ViewSetIdHash{}(key.id) * 31u +
             static_cast<std::size_t>(key.lod);
    }
  };
  struct Entry {
    exnode::ExNode exnode;
    std::uint64_t bytes = 0;
    SimTime expires_at = 0;
    std::uint64_t generation = 0;  ///< republish invalidates older timers
    std::list<Key>::iterator lru;  ///< position in lru_ (front = most recent)
  };
  enum class FlightKind : std::uint8_t { kRestage, kFetch };
  struct FlightKey {
    Key key;
    FlightKind kind = FlightKind::kRestage;
    bool operator==(const FlightKey& other) const {
      return key == other.key && kind == other.kind;
    }
  };
  struct FlightKeyHash {
    std::size_t operator()(const FlightKey& fk) const {
      return KeyHash{}(fk.key) * 2u + static_cast<std::size_t>(fk.kind);
    }
  };
  /// A follower's completion, whatever the flight's kind.
  using FlightCallback = std::function<void(bool ok, const Handoff& handoff)>;
  struct Flight {
    std::vector<FlightCallback> waiters;
  };

  /// The one single-flight path behind begin_restage and begin_fetch.
  bool begin(const FlightKey& fk, FlightCallback on_done);
  /// The one completion path behind finish_restage and finish_fetch.
  void finish(const FlightKey& fk, bool ok, const Handoff& handoff);

  /// Removes `it` from the index under mutex_ (caller holds it).
  void erase_locked(std::unordered_map<Key, Entry, KeyHash>::iterator it);
  /// Timer body: expire (key, generation) if still current.
  void expire_if_current(const Key& key, std::uint64_t generation);
  /// Snapshot of the listeners (under mutex_) for an outside-lock fanout.
  [[nodiscard]] std::vector<InvalidateListener> listeners_locked() const;
  void fanout(const std::vector<InvalidateListener>& listeners, const Key& key);

  sim::Simulator& sim_;
  SiteCacheConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  ///< front = most recently used
  std::uint64_t bytes_ = 0;
  std::uint64_t generation_ = 0;
  std::unordered_map<FlightKey, Flight, FlightKeyHash> flights_;
  std::unordered_set<FlightKey, FlightKeyHash> flown_keys_;  ///< feeds the *_keys counters
  std::unordered_map<std::size_t, InvalidateListener> listeners_;
  std::size_t next_listener_ = 0;
};

}  // namespace lon::streaming
