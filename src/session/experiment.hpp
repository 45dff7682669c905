// End-to-end remote-visualization experiments — paper section 4.2/4.3.
//
// "We ran tests for three cases as follows:
//   1. LFD stored in LAN, driven by client agent pre-fetch.
//   2. LFD stored remotely in California and streamed by pre-fetching
//      initiated by client agent.
//   3. LFD stored remotely in California, aggressively pre-staged on a local
//      depot in LAN and pre-fetched by client agent from the LAN depot."
//
// Topology (the paper's actual configuration, section 4.3): the view sets
// are striped across three depots in "California" behind a shared 100 Mb/s
// WAN trunk (~35 ms one way), and — in case 3 — prestaged across four depots
// attached to the client agent by a 1 Gb/s LAN. Client and client agent are
// distinct machines on that LAN. In all three cases the same quadrant
// prefetch policy runs on the client agent.
//
// One browse of one case is `run_scenario(single_walk(config))`
// (session/scenario.hpp): a one-viewer Scenario replaying the standard
// seeded walk.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "lightfield/lattice.hpp"
#include "streaming/client.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/types.hpp"

namespace lon::session {

enum class Case {
  kLanData = 1,         ///< case 1: database already on the LAN depots
  kWanStreaming = 2,    ///< case 2: WAN + prefetch only
  kWanWithLanDepot = 3, ///< case 3: WAN + aggressive LAN-depot prestaging
};

[[nodiscard]] const char* to_string(Case c);

struct ExperimentConfig {
  lightfield::LatticeConfig lattice = lightfield::LatticeConfig::paper(200);
  Case which = Case::kWanWithLanDepot;

  // Workload.
  SimDuration dwell = 2 * kSecond;   ///< user pause between movements
  std::size_t accesses = 58;         ///< view-set requests the script generates
  std::uint64_t seed = 2003;

  // Content policy: real pixels for the view sets the scripts touch,
  // size-matched filler for the rest. all_filler publishes filler for
  // everything and skips client-side decoding entirely — for
  // communication-latency-only studies (set client.decode = false too).
  bool all_filler = false;

  // Client behaviour.
  streaming::ClientConfig client;

  // Agent behaviour (case-independent knobs; staging/prefetch are set by the
  // case but can be overridden for ablations).
  std::uint64_t agent_cache_bytes = 512ull << 20;
  bool prefetch = true;
  /// Policy engine: which prefetch scheduler and cache replacement policy the
  /// agent runs, plus the predictive scheduler's budget knobs.
  policy::PrefetchStrategy prefetch_strategy = policy::PrefetchStrategy::kQuadrant;
  policy::EvictionStrategy eviction = policy::EvictionStrategy::kLru;
  std::size_t prefetch_max_inflight = 0;   ///< 0 = unlimited
  std::uint64_t prefetch_max_bytes = 0;    ///< 0 = unlimited
  int staging_concurrency = 4;
  streaming::ClientAgentConfig::StagingOrder staging_order =
      streaming::ClientAgentConfig::StagingOrder::kProximity;
  bool pause_staging_on_miss = false;

  // Topology.
  double wan_bandwidth_bps = 100e6;
  SimDuration wan_latency = 35 * kMillisecond;
  double wan_jitter = 0.05;
  double lan_bandwidth_bps = 1e9;
  SimDuration lan_latency = 50 * kMicrosecond;
  int wan_depot_count = 3;   ///< "striped across three depots in California"
  int lan_depot_count = 4;   ///< "striped across four depots ... by a 1Gb/s LAN"
  double depot_disk_bps = 80e6;
  std::uint64_t net_seed = 7;  ///< 0 disables jitter entirely
  /// Debug: force every max-min solve to cover the whole flow graph instead
  /// of only the affected component. Results must be identical either way;
  /// differential tests flip this to prove it.
  bool full_network_resolve = false;

  // Robustness / fault injection. The defaults reproduce the fault-free
  // runs exactly: no faults, no deadlines, no retries, no repair.
  int publish_replicas = 1;          ///< copies of each block across the WAN depots
  fault::FaultPlan faults;           ///< event times relative to script start
  ibp::FabricTimeouts timeouts;      ///< 0 = no per-operation deadlines
  lors::RetryPolicy retry;           ///< agent download retry discipline
  int max_refetch = 2;               ///< agent end-to-end re-resolutions
  SimDuration staging_lease = 24 * 3600 * kSecond;
  bool lease_refresh = false;        ///< keep staged soft copies alive
  SimDuration lease_refresh_interval = 0;  ///< 0 = staging_lease / 4

  // --- Cooperative site cache / sharded DVS ---------------------------------

  /// Client agents behind the one LAN switch; clients are assigned to them
  /// round-robin. 1 (default) is the historical single-agent topology.
  int site_agents = 1;
  /// Share one cooperative SiteCache index across all co-sited agents:
  /// staged copies are discoverable site-wide and concurrent restages of
  /// the same view set coalesce into a single WAN fetch.
  bool site_cache = false;
  /// DVS directory shards (lookup tables partitioned by ViewSetId hash).
  std::size_t dvs_shards = 1;
  /// Serial per-query service time a DVS shard charges (0 = uncontended).
  SimDuration dvs_shard_service = 0;
  /// > 0: the publisher runs a repair sweep this often, probing a slice of
  /// the database's exNodes and re-replicating extents that lost replicas
  /// to crashed depots (healed exNodes are re-installed into the DVS).
  /// Repairs restore publish_replicas live copies per extent.
  SimDuration repair_interval = 0;
  std::size_t repair_batch = 4;      ///< exNodes probed per sweep

  // Concurrency (the parallel demand path). The defaults reproduce the
  // serial seed behaviour exactly.
  ThreadPool* pool = nullptr;             ///< CPU pool for verify/codec work
  bool pipeline_decompress = false;       ///< overlap decode with stripe arrival
  std::size_t pipeline_inflight = 0;      ///< chunk decodes in flight (0 = 2x pool)
  /// > 0: publish view sets as chunked (LFZC) containers of this chunk size,
  /// the format the pipeline can overlap. 0 = plain lfz (the seed format).
  std::uint64_t publish_chunk_bytes = 0;

  // Overload protection. The defaults keep every mechanism off: no admission
  // control, no degradation ladder, no coarse tier, no server agent — the
  // fault-free runs reproduce the seed exactly.
  streaming::AdmissionConfig admission;    ///< demand-path admission at the agent
  SimDuration interactivity_deadline = 0;  ///< SLO the triage and ladder work to
  bool degrade = false;                    ///< enable the degradation ladder
  int degrade_after_misses = 3;            ///< deadline misses per rung down
  int upgrade_after_hits = 8;              ///< clean deliveries per rung up

  // Continuous LOD streaming. Coarse tiers of the scene published next to
  // the full database (each in its own DVS namespace); with lod_streaming
  // the agent serves the finest tier that fits the interactivity deadline
  // and refines to full resolution in the background. The kCoarseLod rung
  // of the degradation ladder serves the coarsest of these tiers.
  std::vector<std::size_t> lod_resolutions;  ///< coarse tier view resolutions
  bool lod_streaming = false;  ///< per-access LOD pick by the policy engine
  bool lod_refine = true;      ///< background upgrade after a coarse serve
  /// Fetch-latency estimator priors handed to the agent. Constrained-link
  /// profiles (the PDA-class scenario) seed the WAN prior above the deadline
  /// so the very first access already degrades instead of blowing the SLO.
  policy::FetchLatencyEstimator::Config fetch_latency;

  int hot_report_threshold = 0;  ///< sheds per view set before reporting hot
  /// Run the server-side generator/augmenter behind the DVS.
  bool server_agent = false;
  int augment_threshold = 0;      ///< hot reports before fanning replicas out
  SimDuration augment_cooldown = 60 * kSecond;  ///< per-view-set augment hysteresis
};

}  // namespace lon::session
