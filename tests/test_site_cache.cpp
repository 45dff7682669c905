// Cooperative site cache: single-flight restage coalescing, the site-wide
// fetch flight and its leader-to-follower hand-off, lease-aware atomic
// invalidation, capacity-bounded eviction, the sharded DVS directory, and
// the co-sited integration paths — including the restaged double-count
// regression (a WAN-side retry must not destroy a healthy, freshly
// restaged LAN replica nor count a second restage for one incident).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "lightfield/procedural.hpp"
#include "session/scenario.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "streaming/site_cache.hpp"

namespace lon::streaming {
namespace {

using lightfield::ViewSetId;

lightfield::LatticeConfig small_config(std::size_t resolution = 24) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice
  cfg.view_set_span = 3;        // 4 x 8 = 32 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

exnode::ExNode fake_exnode(const ViewSetId& id, std::uint64_t length = 100) {
  exnode::ExNode node(length);
  exnode::Extent extent;
  extent.offset = 0;
  extent.length = length;
  exnode::Replica rep;
  rep.read.depot = "d";
  rep.read.allocation = static_cast<std::uint64_t>(id.row * 100 + id.col);
  rep.read.key = 7;
  extent.replicas.push_back(rep);
  node.add_extent(extent);
  return node;
}

// --- site cache index ---------------------------------------------------------

constexpr SimDuration kHour = 3600 * kSecond;

class SiteCacheTest : public ::testing::Test {
 protected:
  std::unique_ptr<SiteCache> make(SiteCacheConfig cfg = {}) {
    return std::make_unique<SiteCache>(sim_, cfg, &obs_);
  }

  sim::Simulator sim_;
  obs::Context obs_;
};

TEST_F(SiteCacheTest, SingleFlightCoalescesToOneLeader) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{1, 2};
  int follower_done = 0;
  bool follower_ok = false;

  // First caller leads; its callback is NOT queued — it performs the copy.
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  // Everyone racing it joins the flight.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(site.begin_restage(id, 0, [&](bool ok, const exnode::ExNode& node) {
      ++follower_done;
      follower_ok = ok;
      EXPECT_EQ(node.length(), 100u);
    }));
  }
  EXPECT_EQ(follower_done, 0);

  site.finish_restage(id, 0, true, fake_exnode(id));
  EXPECT_EQ(follower_done, 4);
  EXPECT_TRUE(follower_ok);
  EXPECT_EQ(site.metrics().restage_leaders.value(), 1u);
  EXPECT_EQ(site.metrics().restage_joins.value(), 4u);
  EXPECT_EQ(site.metrics().restage_keys.value(), 1u);

  // The flight is gone: a later restage of the same key leads afresh, but
  // the key was already counted — restage_keys stays the distinct count.
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  site.finish_restage(id, 0, true, fake_exnode(id));
  EXPECT_EQ(site.metrics().restage_leaders.value(), 2u);
  EXPECT_EQ(site.metrics().restage_keys.value(), 1u);
}

TEST_F(SiteCacheTest, DistinctLodTiersAreSeparateFlights) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{0, 1};
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  EXPECT_TRUE(site.begin_restage(id, 2, nullptr));  // other tier, own flight
  EXPECT_FALSE(site.begin_restage(id, 2, [](bool, const exnode::ExNode&) {}));
  EXPECT_EQ(site.metrics().restage_keys.value(), 2u);
}

TEST_F(SiteCacheTest, FetchFlightsKeyOnLodAndNeverMeetRestages) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{1, 1};
  std::vector<SiteCache::Handoff> got;
  const auto park = [&](const SiteCache::Handoff& h) { got.push_back(h); };
  EXPECT_TRUE(site.begin_fetch(id, 0, park));
  EXPECT_TRUE(site.begin_fetch(id, 1, park));   // other tier: its own flight
  EXPECT_FALSE(site.begin_fetch(id, 1, park));  // same tier: joins
  // A restage of the same key is a different flight kind: it leads.
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  EXPECT_EQ(site.metrics().fetch_leaders.value(), 2u);
  EXPECT_EQ(site.metrics().fetch_joins.value(), 1u);
  EXPECT_EQ(site.metrics().fetch_keys.value(), 2u);
  EXPECT_EQ(site.metrics().restage_leaders.value(), 1u);

  const auto payload = std::make_shared<const Bytes>(Bytes(300, 7));
  site.finish_fetch(id, 1, {fake_exnode(id, 300), payload, /*leader=*/42});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, payload);  // aliased, not copied
  EXPECT_EQ(got[0].leader, 42u);
  EXPECT_EQ(got[0].exnode.length(), 300u);
  EXPECT_EQ(site.metrics().handoff_bytes.value(), 300u);
  // The tier-0 flight had no followers; finishing it hands nothing off.
  site.finish_fetch(id, 0, {fake_exnode(id), payload, 42});
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(site.metrics().handoff_bytes.value(), 300u);
  site.finish_restage(id, 0, true, fake_exnode(id));
}

TEST_F(SiteCacheTest, FailedFetchReleasesFollowersWithoutAPayload) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{3, 0};
  std::optional<SiteCache::Handoff> got;
  EXPECT_TRUE(site.begin_fetch(id, 0, nullptr));
  EXPECT_FALSE(site.begin_fetch(id, 0, [&](const SiteCache::Handoff& h) { got = h; }));
  site.finish_fetch(id, 0, {exnode::ExNode{}, nullptr, 5});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, nullptr);
  EXPECT_EQ(site.metrics().handoff_bytes.value(), 0u);
  // The key is free again: the next caller leads.
  EXPECT_TRUE(site.begin_fetch(id, 0, nullptr));
}

TEST_F(SiteCacheTest, FailedRestageResolvesFollowersWithFailure) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{2, 3};
  std::optional<bool> follower_ok;
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  EXPECT_FALSE(site.begin_restage(
      id, 0, [&](bool ok, const exnode::ExNode&) { follower_ok = ok; }));
  site.finish_restage(id, 0, false, exnode::ExNode{});
  ASSERT_TRUE(follower_ok.has_value());
  EXPECT_FALSE(*follower_ok);
}

TEST_F(SiteCacheTest, LookupDropsExpiredLeaseLazilyAndFansOut) {
  SiteCacheConfig cfg;
  cfg.expiry_timers = false;  // force the lazy path
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  const ViewSetId id{1, 1};
  std::vector<ViewSetId> invalidated;
  site.add_listener([&](const ViewSetId& dead, int) { invalidated.push_back(dead); });

  site.publish(id, 0, fake_exnode(id), 100, kSecond);
  EXPECT_TRUE(site.lookup(id).has_value());

  sim_.after(2 * kSecond, [] {});
  sim_.run();
  // Past the lease: the lookup itself must refuse to serve the dead copy
  // and tell every co-sited agent in the same instant.
  EXPECT_FALSE(site.lookup(id).has_value());
  ASSERT_EQ(invalidated.size(), 1u);
  EXPECT_EQ(invalidated[0], id);
  EXPECT_EQ(site.metrics().expirations.value(), 1u);
  EXPECT_EQ(site.size(), 0u);
}

TEST_F(SiteCacheTest, ExpiryTimerInvalidatesEveryListenerAtomically) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;  // timers on
  const ViewSetId id{3, 4};
  SimTime seen_a = 0, seen_b = 0;
  site.add_listener([&](const ViewSetId&, int) { seen_a = sim_.now(); });
  site.add_listener([&](const ViewSetId&, int) { seen_b = sim_.now(); });

  const SimTime expiry = 5 * kSecond;
  site.publish(id, 0, fake_exnode(id), 100, expiry);

  // One nanosecond before the lease ends the copy is still live...
  bool live_before = false;
  sim_.after(expiry - 1, [&] { live_before = site.lookup(id).has_value(); });
  // ...and exactly at the expiry instant no caller may be served, whether
  // the timer or the lookup runs first within the timestamp.
  bool live_at = true;
  sim_.after(expiry, [&] { live_at = site.lookup(id).has_value(); });
  sim_.run();

  EXPECT_TRUE(live_before);
  EXPECT_FALSE(live_at);
  // Both co-sited agents heard about the death in the same virtual instant:
  // no window in which one still trusts the dead replica.
  EXPECT_EQ(seen_a, expiry);
  EXPECT_EQ(seen_b, expiry);
  EXPECT_EQ(site.metrics().expirations.value(), 1u);
}

TEST_F(SiteCacheTest, RepublishSupersedesTheOlderExpiryTimer) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{0, 5};
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  site.publish(id, 0, fake_exnode(id), 100, kSecond);
  // A fresh staging renews the lease before the old timer fires; the stale
  // timer must not kill the new copy (generation check).
  site.publish(id, 0, fake_exnode(id), 100, 10 * kSecond);

  bool live_after_first_expiry = false;
  sim_.after(2 * kSecond, [&] { live_after_first_expiry = site.lookup(id).has_value(); });
  sim_.run();
  EXPECT_TRUE(live_after_first_expiry);
  EXPECT_EQ(fanouts, 1);  // only the real (second) expiry fanned out
  EXPECT_EQ(site.metrics().expirations.value(), 1u);
}

TEST_F(SiteCacheTest, ExplicitInvalidateFansOutEvenWhenAbsent) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });
  // An agent saw a download from the shared copy fail after the index had
  // already dropped it: the co-sited wave must still run.
  site.invalidate({2, 2});
  EXPECT_EQ(fanouts, 1);
  EXPECT_EQ(site.metrics().invalidations.value(), 1u);
}

TEST_F(SiteCacheTest, CapacityEvictionIsLruAndDoesNotFanOut) {
  SiteCacheConfig cfg;
  cfg.capacity_bytes = 300;
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  site.publish({0, 0}, 0, fake_exnode({0, 0}), 100, kHour);
  site.publish({0, 1}, 0, fake_exnode({0, 1}), 100, kHour);
  site.publish({0, 2}, 0, fake_exnode({0, 2}), 100, kHour);
  // Touch the oldest so {0,1} becomes the LRU victim.
  EXPECT_TRUE(site.lookup({0, 0}).has_value());
  site.publish({0, 3}, 0, fake_exnode({0, 3}), 100, kHour);

  EXPECT_FALSE(site.contains({0, 1}));
  EXPECT_TRUE(site.contains({0, 0}));
  EXPECT_TRUE(site.contains({0, 2}));
  EXPECT_TRUE(site.contains({0, 3}));
  EXPECT_EQ(site.metrics().evictions.value(), 1u);
  // Eviction only forgets the index entry — the stager's replica and lease
  // are intact, so nobody's derived state may be dropped.
  EXPECT_EQ(fanouts, 0);
  EXPECT_LE(site.metrics().bytes.value(), 300u);
}

TEST_F(SiteCacheTest, RemovedListenerStopsReceivingFanouts) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  const std::size_t token =
      site.add_listener([&](const ViewSetId&, int) { ++fanouts; });
  site.invalidate({1, 0});
  site.remove_listener(token);
  site.invalidate({1, 0});
  EXPECT_EQ(fanouts, 1);
}

// TSan target: agents on the simulator thread and pool workers may hit the
// index — and read its counters — concurrently. Timers stay off — the
// simulator is not thread-safe, the index is.
TEST_F(SiteCacheTest, ConcurrentHammerKeepsTheIndexConsistent) {
  SiteCacheConfig cfg;
  cfg.capacity_bytes = 64 * 100;  // force concurrent evictions too
  cfg.expiry_timers = false;
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  std::atomic<int> fanouts{0};
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  // Readers sample the counters while the workers run: every counter only
  // ever grows, and the index never outgrows the 32 distinct keys.
  std::atomic<bool> workers_done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&site, &workers_done] {
      const SiteCache::Metrics& m = site.metrics();
      std::uint64_t lookups = 0, hits = 0, restage_keys = 0;
      for (bool last = false; !last; std::this_thread::yield()) {
        last = workers_done.load();
        EXPECT_GE(m.lookups.value(), lookups);
        EXPECT_GE(m.hits.value(), hits);
        EXPECT_GE(m.restage_keys.value(), restage_keys);
        lookups = m.lookups.value();
        hits = m.hits.value();
        restage_keys = m.restage_keys.value();
        EXPECT_LE(site.size(), 32u);
      }
    });
  }
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&site, t] {
      for (int i = 0; i < kOps; ++i) {
        const ViewSetId id{t % 4, i % 8};
        switch (i % 5) {
          case 0:
            site.publish(id, 0, fake_exnode(id), 100, kHour);
            break;
          case 1:
            (void)site.lookup(id);
            break;
          case 2:
            site.invalidate(id);
            break;
          case 3:
            if (site.begin_restage(id, 0, [](bool, const exnode::ExNode&) {})) {
              site.finish_restage(id, 0, true, fake_exnode(id));
            }
            break;
          default:
            (void)site.contains(id);
            break;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  workers_done = true;
  for (std::thread& reader : readers) reader.join();

  const SiteCache::Metrics& m = site.metrics();
  EXPECT_EQ(m.hits.value() + m.misses.value(), m.lookups.value());
  EXPECT_LE(site.size(), 32u);
  EXPECT_LE(m.bytes.value(), 64u * 100u);
  EXPECT_EQ(m.restage_keys.value(), 32u);
  EXPECT_GT(fanouts.load(), 0);
}

// --- sharded DVS directory ----------------------------------------------------

class ShardedDvsTest : public ::testing::Test {
 protected:
  ShardedDvsTest()
      : net_(sim_),
        lattice_(small_config()),
        client_(net_.add_node("client")),
        dvs_node_(net_.add_node("dvs")) {
    net_.add_link(client_, dvs_node_, {1e9, 10 * kMillisecond, 0.0});
  }

  std::unique_ptr<DvsServer> make(DvsConfig cfg) {
    return std::make_unique<DvsServer>(sim_, net_, dvs_node_, lattice_, cfg, &obs_);
  }

  sim::Simulator sim_;
  sim::Network net_;
  obs::Context obs_;
  lightfield::SphericalLattice lattice_;
  sim::NodeId client_, dvs_node_;
};

TEST_F(ShardedDvsTest, EveryViewSetRoutesToItsShardAndIsFound) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 4;
  auto dvs = make(cfg);
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->install(id, fake_exnode(id));
  }
  std::size_t found = 0;
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->query_async(client_, id, false, [&](const DvsServer::QueryResult& r) {
      if (r.found) ++found;
    });
  }
  sim_.run();
  EXPECT_EQ(found, lattice_.view_set_count());
  // The per-shard counters exist only in sharded mode and partition the
  // totals exactly.
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.queries"),
            lattice_.view_set_count());
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.hits"),
            lattice_.view_set_count());
  // Leaves are sized leaf_capacity * shards, so the per-shard trees stay as
  // shallow as the single tree they replace.
  EXPECT_GE(dvs->tree_depth(), 1);
}

TEST_F(ShardedDvsTest, SameShardBurstSerializesDistinctShardsProceed) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 2;
  cfg.shard_service = 5 * kMillisecond;
  auto dvs = make(cfg);
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->install(id, fake_exnode(id));
  }

  // Sort the grid by the same hash the router uses.
  std::vector<ViewSetId> shard0, shard1;
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    (lightfield::ViewSetIdHash{}(id) % 2 == 0 ? shard0 : shard1).push_back(id);
  }
  ASSERT_GE(shard0.size(), 2u);
  ASSERT_GE(shard1.size(), 1u);

  // Two queries into the same shard plus one into the other, all at once.
  SimTime done_same_a = 0, done_same_b = 0, done_other = 0;
  dvs->query_async(client_, shard0[0], false,
                   [&](const DvsServer::QueryResult&) { done_same_a = sim_.now(); });
  dvs->query_async(client_, shard0[1], false,
                   [&](const DvsServer::QueryResult&) { done_same_b = sim_.now(); });
  dvs->query_async(client_, shard1[0], false,
                   [&](const DvsServer::QueryResult&) { done_other = sim_.now(); });
  sim_.run();

  // The same-shard loser queued for one service slot; the other shard never
  // waited at all.
  EXPECT_GE(done_same_b, done_same_a + cfg.shard_service);
  EXPECT_LT(done_other, done_same_b);
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.waits"), 1u);
}

TEST_F(ShardedDvsTest, UncontendedShardServiceNeverWaits) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 4;
  cfg.shard_service = 5 * kMillisecond;
  auto dvs = make(cfg);
  const ViewSetId id{1, 3};
  dvs->install(id, fake_exnode(id));
  // Back-to-back (not concurrent) queries to one shard: the slot is free
  // again by the time the second arrives.
  bool first = false;
  dvs->query_async(client_, id, false,
                   [&](const DvsServer::QueryResult& r) { first = r.found; });
  sim_.run();
  bool second = false;
  dvs->query_async(client_, id, false,
                   [&](const DvsServer::QueryResult& r) { second = r.found; });
  sim_.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.waits"), 0u);
}

// --- co-sited agents over the full pipeline -----------------------------------

class CoSitedPipelineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kResolution = 24;

  CoSitedPipelineTest()
      : net_(sim_),
        fabric_(sim_, net_, &obs_),
        lors_(sim_, net_, fabric_, 0x10f5, &obs_),
        source_(std::make_shared<lightfield::ProceduralSource>(small_config(kResolution))) {
    lan_switch_ = net_.add_node("lan-switch");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    for (int i = 0; i < 2; ++i) {
      const std::string name = "lan-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, lan_switch_, lan);
      add_depot(node, name);
      lan_depots_.push_back(name);
    }
    wan_router_ = net_.add_node("wan-router");
    net_.add_link(lan_switch_, wan_router_, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 2; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, wan_router_, {1e9, kMillisecond, 0.0});
      add_depot(node, name);
      wan_depots_.push_back(name);
    }
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, wan_router_, {1e9, kMillisecond, 0.0});
    server_node_ = net_.add_node("server");
    net_.add_link(server_node_, wan_router_, {1e9, kMillisecond, 0.0});
    dvs_ = std::make_unique<DvsServer>(sim_, net_, dvs_node_, source_->lattice(),
                                       DvsConfig{}, &obs_);
    site_ = std::make_unique<SiteCache>(sim_, SiteCacheConfig{}, &obs_);
  }

  void add_depot(sim::NodeId node, const std::string& name) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    cfg.max_alloc_bytes = 1ull << 28;
    fabric_.add_depot(node, name, cfg);
  }

  void publish_all() {
    for (const ViewSetId& id : source_->lattice().all_view_sets()) {
      Bytes compressed = source_->build_compressed(id);
      lors::UploadOptions up;
      up.depots = wan_depots_;
      up.block_bytes = 4096;
      bool ok = false;
      lors_.upload_async(server_node_, std::move(compressed), up,
                         [&](const lors::UploadResult& r) {
                           ok = r.status == lors::LorsStatus::kOk;
                           exnode::ExNode node = r.exnode;
                           dvs_->install(id, std::move(node));
                         });
      sim_.run();
      ASSERT_TRUE(ok);
    }
  }

  ClientAgent& add_agent(bool use_site, SimDuration lease = 24 * 3600 * kSecond,
                         bool restage_on_failure = true) {
    ClientAgentConfig cfg;
    cfg.prefetch = false;
    cfg.staging = true;
    cfg.lan_depots = lan_depots_;
    cfg.staging_concurrency = 2;
    cfg.staging_lease = lease;
    cfg.restage_on_failure = restage_on_failure;
    if (use_site) cfg.site_cache = site_.get();
    return add_agent(cfg);
  }

  /// A browsing agent: no staging and no prefetch, so every demand miss is
  /// a WAN fetch — the flight the site cache coalesces.
  ClientAgent& add_browser(int max_refetch = 2) {
    ClientAgentConfig cfg;
    cfg.prefetch = false;
    cfg.max_refetch = max_refetch;
    cfg.site_cache = site_.get();
    return add_agent(cfg);
  }

  ClientAgent& add_agent(const ClientAgentConfig& cfg) {
    const sim::NodeId node =
        net_.add_node("agent-" + std::to_string(agents_.size()));
    net_.add_link(node, lan_switch_, {1e9, 50 * kMicrosecond, 0.0});
    agents_.push_back(std::make_unique<ClientAgent>(
        sim_, net_, fabric_, lors_, *dvs_, source_->lattice(), node, cfg, &obs_));
    return *agents_.back();
  }

  /// Bytes the WAN trunk carried toward the site so far.
  std::uint64_t trunk_bytes_in() const {
    const sim::LinkId trunk = net_.link_between(lan_switch_, wan_router_).value();
    return net_.link_stats(trunk, /*forward=*/false).bytes_carried;
  }

  /// Demand request whose delivery is stored in `out`.
  static void request(ClientAgent& agent, const ViewSetId& id,
                      std::optional<ClientAgent::Delivery>& out) {
    agent.request_view_set(id, [&out](const ClientAgent::Delivery& d) { out = d; });
  }

  /// The first span named `name`, or null.
  const obs::Span* span_named(const std::string& name) const {
    for (const obs::Span& span : obs_.trace.spans()) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }
  static std::string arg_of(const obs::Span& span, const std::string& key) {
    for (const auto& [k, v] : span.args) {
      if (k == key) return v;
    }
    return "";
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  std::unique_ptr<DvsServer> dvs_;
  std::unique_ptr<SiteCache> site_;  // outlives the agents registered on it
  std::vector<std::unique_ptr<ClientAgent>> agents_;
  sim::NodeId lan_switch_, wan_router_, dvs_node_, server_node_;
  std::vector<std::string> lan_depots_, wan_depots_;
};

// The headline bugfix: N co-sited agents prestaging the same database must
// pull each view set across the WAN exactly once, not N times.
TEST_F(CoSitedPipelineTest, CoSitedAgentsStageEachViewSetExactlyOnce) {
  publish_all();
  for (int i = 0; i < 3; ++i) add_agent(/*use_site=*/true);
  for (auto& agent : agents_) agent->start_staging();
  // Bounded run: staging finishes within seconds; draining the full queue
  // would fire the 24 h lease-expiry timers and start a legitimate second
  // staging round, which is not what this test measures.
  sim_.run_until(600 * kSecond);

  const std::size_t sets = source_->lattice().view_set_count();
  std::uint64_t coalesced = 0, adopted = 0;
  for (auto& agent : agents_) {
    EXPECT_TRUE(agent->staging_complete());
    EXPECT_EQ(agent->metrics().staged.value(), sets);
    coalesced += agent->metrics().restage_coalesced.value();
    adopted += agent->metrics().site_adopted.value();
  }
  // Exactly one WAN staging per view set, site-wide...
  EXPECT_EQ(site_->metrics().restage_leaders.value(), sets);
  EXPECT_EQ(site_->metrics().restage_keys.value(), sets);
  // ...and the other two agents' work was entirely shared: every one of
  // their 2 * sets staging targets was adopted or joined, never refetched.
  EXPECT_EQ(coalesced + adopted, 2 * sets);
}

TEST_F(CoSitedPipelineTest, ControlAgentsWithoutTheSiteCacheStageNTimes) {
  publish_all();
  for (int i = 0; i < 2; ++i) add_agent(/*use_site=*/false);
  for (auto& agent : agents_) agent->start_staging();
  sim_.run();
  std::uint64_t wan_bytes = 0;
  for (auto& agent : agents_) {
    EXPECT_TRUE(agent->staging_complete());
    wan_bytes += agent->metrics().stage_wan_bytes.value();
    EXPECT_EQ(agent->metrics().restage_coalesced.value(), 0u);
    EXPECT_EQ(agent->metrics().site_adopted.value(), 0u);
  }
  EXPECT_EQ(site_->metrics().restage_leaders.value(), 0u);
  // Both agents paid the full database over the WAN: the stampede.
  EXPECT_EQ(wan_bytes % 2, 0u);
  EXPECT_GT(wan_bytes, 0u);
}

// Fault-injected regression for the restaged double-count: a download
// failure on the retry path used to unconditionally drop the staged copy
// and queue another restage, so one incident (staged replica dies, retry
// fails over to the WAN and fails again there) could count restaged more
// than once — and a WAN-side failure could destroy a healthy, freshly
// restaged LAN replica. Now only the attempt actually served from the
// staged/site copy drops it: with every depot dark the agent burns through
// its whole refetch budget, but only the FIRST failure — the one served
// from the staged copy — queues (and counts) a restage.
TEST_F(CoSitedPipelineTest, StagedReplicaDeathCountsExactlyOneRestage) {
  publish_all();
  ClientAgent& agent = add_agent(/*use_site=*/true);
  agent.start_staging();
  // Bounded: stop before the 24 h staging-lease expiry wave AND stay inside
  // the 1 h source lease on the WAN replicas, which the refetches depend on.
  sim_.run_until(300 * kSecond);
  ASSERT_TRUE(agent.staging_complete());
  ASSERT_EQ(agent.metrics().restaged.value(), 0u);
  const std::size_t sets = source_->lattice().view_set_count();
  ASSERT_EQ(site_->metrics().restage_leaders.value(), sets);

  // Every depot dark: the staged attempt fails, and so does each WAN-side
  // refetch after it. Heal long after the incident has fully played out.
  for (const std::string& name : lan_depots_) fabric_.set_offline(name, true);
  for (const std::string& name : wan_depots_) fabric_.set_offline(name, true);
  sim_.after(300 * kSecond, [&] {
    for (const std::string& name : lan_depots_) fabric_.set_offline(name, false);
    for (const std::string& name : wan_depots_) fabric_.set_offline(name, false);
  });

  const ViewSetId id{2, 6};
  bool done = false;
  Bytes received = {9};
  agent.request_view_set(id, [&](const ClientAgent::Delivery& d) {
    done = true;
    received = *d.payload;
  });
  sim_.run_until(1000 * kSecond);  // covers the incident and the +300 s heal

  ASSERT_TRUE(done);
  EXPECT_TRUE(received.empty());  // the incident itself is a failed access
  // The refetch budget was spent: several failures, ONE counted restage —
  // only the attempt served from the staged copy dropped it; the WAN-side
  // retries must not count again.
  EXPECT_EQ(agent.metrics().refetches.value(), 2u);
  EXPECT_EQ(agent.metrics().restaged.value(), 1u);
  // The queued restage led exactly one single-flight attempt (it failed —
  // the depots were still dark — but it was one flight, not a stampede).
  EXPECT_EQ(site_->metrics().restage_leaders.value(), sets + 1);
  EXPECT_GE(agent.metrics().staging_failures.value(), 1u);

  // After the heal the same view set is served cleanly over the WAN.
  bool delivered = false;
  agent.request_view_set(id, [&](const ClientAgent::Delivery& d) {
    delivered = !d.payload->empty();
    EXPECT_EQ(d.cls, AccessClass::kWan);
  });
  sim_.run_until(1500 * kSecond);  // still inside the 1 h source lease
  EXPECT_TRUE(delivered);
  EXPECT_EQ(agent.metrics().restaged.value(), 1u);  // still the one incident
}

// Lease-expiry wave across a site: when the shared lease runs out, every
// co-sited agent must drop the copy in the same virtual instant — no agent
// may still trust the dead replica afterwards. Restaging stays off so the
// wave is observable as a terminal state (with it on, the site would heal
// itself and re-publish fresh leases forever).
TEST_F(CoSitedPipelineTest, LeaseExpiryWaveDropsEveryAgentAtomically) {
  publish_all();
  const SimDuration lease = 600 * kSecond;  // safely after staging completes
  add_agent(/*use_site=*/true, lease, /*restage_on_failure=*/false);
  add_agent(/*use_site=*/true, lease, /*restage_on_failure=*/false);
  for (auto& agent : agents_) agent->start_staging();
  sim_.run();  // staging, then every expiry timer, then quiescence

  const std::size_t sets = source_->lattice().view_set_count();
  for (auto& agent : agents_) {
    ASSERT_TRUE(agent->staging_complete());
    // The wave reached this agent for every staged view set: nothing is
    // still trusted after its lease ended.
    for (const ViewSetId& id : source_->lattice().all_view_sets()) {
      EXPECT_FALSE(agent->is_staged(id));
    }
    EXPECT_EQ(agent->metrics().restaged.value(), 0u);  // restage off: pure wave
  }
  EXPECT_EQ(site_->size(), 0u);
  // One shared entry per view set, each expiring exactly once site-wide.
  EXPECT_EQ(site_->metrics().expirations.value(), sets);
}

// --- the site-wide fetch flight -----------------------------------------------

// Two co-sited agents demand one view set in the same instant: one WAN
// download serves both, the follower skips the DVS round trip and receives
// the leader's slab over the LAN.
TEST_F(CoSitedPipelineTest, ConcurrentCoSitedDemandsShareOneWanDownload) {
  publish_all();
  obs_.trace.set_enabled(true);
  ClientAgent& leader = add_browser();
  ClientAgent& follower = add_browser();
  const ViewSetId id{1, 2};
  const std::uint64_t trunk0 = trunk_bytes_in();
  const std::uint64_t queries0 = dvs_->metrics().queries.value();
  std::optional<ClientAgent::Delivery> a, b;
  request(leader, id, a);
  request(follower, id, b);
  sim_.run();

  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->status, DeliveryStatus::kOk);
  ASSERT_EQ(b->status, DeliveryStatus::kOk);
  const Bytes expected = source_->build_compressed(id);
  EXPECT_EQ(*a->payload, expected);
  EXPECT_EQ(*b->payload, expected);
  EXPECT_EQ(a->payload, b->payload);  // one slab, aliased across agents
  EXPECT_EQ(a->cls, AccessClass::kWan);
  EXPECT_EQ(b->cls, AccessClass::kWan);
  // The follower waited for the leader's bytes plus the LAN hand-off.
  EXPECT_GE(b->comm_latency, a->comm_latency);
  EXPECT_EQ(b->copied_bytes, 0u);

  // One WAN download and one DVS query, site-wide.
  const std::uint64_t trunk = trunk_bytes_in() - trunk0;
  EXPECT_GE(trunk, expected.size());
  EXPECT_LT(trunk, 2 * expected.size());
  EXPECT_EQ(dvs_->metrics().queries.value() - queries0, 1u);
  EXPECT_EQ(site_->metrics().fetch_leaders.value(), 1u);
  EXPECT_EQ(site_->metrics().fetch_joins.value(), 1u);
  EXPECT_EQ(site_->metrics().fetch_keys.value(), 1u);
  EXPECT_EQ(site_->metrics().handoff_bytes.value(), expected.size());
  EXPECT_EQ(leader.metrics().wan_accesses.value(), 1u);
  EXPECT_EQ(follower.metrics().wan_accesses.value(), 1u);

  // The follower's wait is a span of its own, naming the leader's node.
  const obs::Span* wait = span_named("site.wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_FALSE(wait->open);
  EXPECT_EQ(arg_of(*wait, "leader"), std::to_string(leader.node()));
  EXPECT_EQ(arg_of(*wait, "outcome"), "handoff");
  const obs::Span* parent = obs_.trace.find(wait->parent);
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->name, "agent.fetch");
}

// The leader dies mid-download: its follower is released, resolves on its
// own and still delivers, without spending its refetch budget.
TEST_F(CoSitedPipelineTest, FollowerOfACrashedLeaderStillDelivers) {
  publish_all();
  ClientAgent& leader = add_browser(/*max_refetch=*/0);
  ClientAgent& follower = add_browser();
  const ViewSetId id{2, 5};
  std::optional<ClientAgent::Delivery> a, b;
  request(leader, id, a);
  request(follower, id, b);
  // Run until the leader's WAN download has bytes on the wire, then crash
  // its host: every flow into the leader's node dies.
  std::size_t killed = 0;
  while (killed == 0 && sim_.step()) {
    if (leader.demand_wan_active() > 0) killed = net_.cancel_node_flows(leader.node());
  }
  ASSERT_GT(killed, 0u);
  sim_.run();

  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->status, DeliveryStatus::kFailed);
  ASSERT_EQ(b->status, DeliveryStatus::kOk);
  EXPECT_EQ(*b->payload, source_->build_compressed(id));
  EXPECT_EQ(b->cls, AccessClass::kWan);
  EXPECT_EQ(follower.metrics().refetches.value(), 0u);
  // The released follower fetched alone, outside any site flight: it
  // neither led a second flight nor parked again.
  EXPECT_EQ(site_->metrics().fetch_leaders.value(), 1u);
  EXPECT_EQ(site_->metrics().fetch_joins.value(), 1u);
  EXPECT_EQ(site_->metrics().handoff_bytes.value(), 0u);
  EXPECT_EQ(leader.demand_wan_active(), 0);
  EXPECT_EQ(follower.demand_wan_active(), 0);
}

// A leader whose first download fails refetches through the same resolve
// path that parks followers: it must keep leading rather than park on its
// own key, so the run drains and both agents are served.
TEST_F(CoSitedPipelineTest, LeaderRefetchNeverParksOnItsOwnFlight) {
  publish_all();
  ClientAgent& leader = add_browser();
  ClientAgent& follower = add_browser();
  const ViewSetId id{0, 3};
  for (const std::string& name : wan_depots_) fabric_.set_offline(name, true);
  std::optional<ClientAgent::Delivery> a, b;
  request(leader, id, a);
  request(follower, id, b);
  while (leader.metrics().refetches.value() == 0 && sim_.step()) {
  }
  ASSERT_EQ(leader.metrics().refetches.value(), 1u);
  for (const std::string& name : wan_depots_) fabric_.set_offline(name, false);
  sim_.run();  // returns only if nothing is left parked or pending

  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->status, DeliveryStatus::kOk);
  ASSERT_EQ(b->status, DeliveryStatus::kOk);
  EXPECT_EQ(a->payload, b->payload);
  EXPECT_EQ(leader.metrics().refetches.value(), 1u);
  EXPECT_EQ(follower.metrics().refetches.value(), 0u);
  EXPECT_EQ(site_->metrics().fetch_leaders.value(), 1u);
  EXPECT_EQ(site_->metrics().fetch_joins.value(), 1u);
  EXPECT_EQ(leader.demand_wan_active(), 0);
  EXPECT_EQ(follower.demand_wan_active(), 0);
}

// With one agent at the site there is nobody to follow: every WAN fetch
// leads, and a second demand for an id already in flight joins the agent's
// own flight (an agent.join span), never the site flight.
TEST_F(CoSitedPipelineTest, OneAgentSiteNeverParks) {
  publish_all();
  obs_.trace.set_enabled(true);
  ClientAgent& agent = add_browser();
  const std::vector<ViewSetId> ids = {{0, 0}, {1, 4}, {3, 7}};
  std::vector<std::optional<ClientAgent::Delivery>> got(ids.size() + 1);
  for (std::size_t i = 0; i < ids.size(); ++i) request(agent, ids[i], got[i]);
  request(agent, ids[0], got.back());
  sim_.run();

  for (const auto& d : got) {
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->status, DeliveryStatus::kOk);
  }
  EXPECT_EQ(got.front()->payload, got.back()->payload);
  EXPECT_EQ(site_->metrics().fetch_leaders.value(), ids.size());
  EXPECT_EQ(site_->metrics().fetch_joins.value(), 0u);
  EXPECT_EQ(site_->metrics().handoff_bytes.value(), 0u);
  EXPECT_EQ(span_named("site.wait"), nullptr);
  const obs::Span* join = span_named("agent.join");
  ASSERT_NE(join, nullptr);
  EXPECT_FALSE(join->open);
  EXPECT_EQ(arg_of(*join, "outcome"), "ok");
}

// --- composed co-sited crowd scenario -----------------------------------------

/// Run-wide total of one counter over every component instance.
std::uint64_t total(const session::ScenarioResult& r, const char* counter) {
  return r.obs->metrics.counter_total(counter);
}

TEST(CoSitedScenario, SiteCacheCollapsesTheRestageStampede) {
  const session::ScenarioResult site =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 20));
  const session::ScenarioResult control =
      session::run_scenario(session::co_sited_crowd(/*site=*/false, 20));

  EXPECT_EQ(site.failed_accesses, 0u);
  EXPECT_EQ(control.failed_accesses, 0u);
  // Exactly one WAN staging per hot view set with the cooperative cache...
  EXPECT_GT(total(site, "site.restage_keys"), 0u);
  EXPECT_EQ(total(site, "site.restage_leaders"), total(site, "site.restage_keys"));
  EXPECT_GT(total(site, "agent.restage_coalesced"), 0u);
  EXPECT_GT(total(site, "agent.site_adopted"), 0u);
  // Concurrent WAN fetches of one view set share a single flight...
  EXPECT_GT(total(site, "site.fetch_joins"), 0u);
  EXPECT_GT(total(site, "site.handoff_bytes"), 0u);
  // ...which buys strictly fewer WAN bytes than everyone restaging alone.
  EXPECT_LT(total(site, "agent.stage_wan_bytes"), total(control, "agent.stage_wan_bytes"));
  // The control never touches the site machinery.
  EXPECT_EQ(total(control, "agent.restage_coalesced"), 0u);
  EXPECT_EQ(total(control, "site.restage_leaders"), 0u);
  EXPECT_EQ(total(control, "site.fetch_leaders"), 0u);
}

// Continuous LOD behind a shared site: coarse demand serves and their
// full-resolution refinements are separate (id, lod) flights. Each walk runs
// twice in lockstep, once behind each of two agents, so every flight has a
// co-sited twin to coalesce with — and the twins must see the same tier.
TEST(CoSitedScenario, SiteFlightsCoalesceWithinOneLodTierOnly) {
  session::Scenario s = session::pda_link(/*lod_streaming=*/true);
  s.base.site_agents = 2;
  s.base.site_cache = true;
  std::vector<session::ScenarioClient> twins;
  for (const session::ScenarioClient& c : s.clients) {
    twins.push_back(c);  // client 2k   -> agent 0
    twins.push_back(c);  // client 2k+1 -> agent 1
  }
  s.clients = std::move(twins);
  const session::ScenarioResult r = session::run_scenario(s);

  EXPECT_EQ(r.failed_accesses, 0u);
  EXPECT_GT(total(r, "site.fetch_joins"), 0u);
  EXPECT_GT(total(r, "agent.lod_coarse_serves"), 0u);
  EXPECT_EQ(total(r, "agent.lod_refined"), total(r, "agent.lod_refinements"));
  std::size_t coarse = 0;
  for (std::size_t i = 0; i + 1 < r.clients.size(); i += 2) {
    const auto& a = r.clients[i].accesses;
    const auto& b = r.clients[i + 1].accesses;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].id, b[k].id);
      EXPECT_EQ(a[k].lod, b[k].lod) << "access " << k << " of twin pair " << i;
      EXPECT_EQ(a[k].compressed_bytes, b[k].compressed_bytes);
      if (a[k].lod > 0) ++coarse;
    }
  }
  EXPECT_GT(coarse, 0u);
  // Both tiers coalesced: more distinct site keys than distinct view sets
  // visited means coarse and full flights of one id were keyed apart.
  std::unordered_set<ViewSetId, lightfield::ViewSetIdHash> ids;
  for (const auto& pc : r.clients) {
    for (const AccessRecord& a : pc.accesses) ids.insert(a.id);
  }
  EXPECT_GT(total(r, "site.fetch_keys"), ids.size());
  for (int i = 0; i < 2; ++i) {
    const obs::Gauge* g = r.obs->metrics.find_gauge(
        "agent.demand_wan_active", "component=agent,inst=" + std::to_string(i));
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->value(), 0.0);
  }
}

TEST(CoSitedScenario, CoSitedRunsAreDeterministic) {
  const session::ScenarioResult a =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 10));
  const session::ScenarioResult b =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 10));
  EXPECT_EQ(a.mean_total_s, b.mean_total_s);
  EXPECT_EQ(total(a, "agent.stage_wan_bytes"), total(b, "agent.stage_wan_bytes"));
  EXPECT_EQ(total(a, "agent.restage_coalesced"), total(b, "agent.restage_coalesced"));
  EXPECT_EQ(total(a, "site.restage_leaders"), total(b, "site.restage_leaders"));
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.duration, b.duration);
}

}  // namespace
}  // namespace lon::streaming
