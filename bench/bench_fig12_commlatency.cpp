// Figure 12: communication latency due to data access, as measured at the
// client agent, for resolutions 200/300/500 and cases 1/2/3 (log scale in
// the paper).
//
// Paper: three clean decades — hits ~1e-4 s; LAN-depot accesses ~1e-2..1e-1 s;
// WAN accesses ~1 s. During the case-3 initial phase, LAN-depot latency is
// inflated by staging traffic contending for the depot disks.
//
// Method: communication latency is independent of pixel content, so the
// databases here are size-calibrated filler and the client skips decoding —
// pure transfer behaviour at full paper scale.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace lon;
  bench::print_header(
      "Figure 12: communication latency at the client agent (seconds, "
      "log-scale in the paper)",
      "hit ~1e-4 s; LAN depot ~1e-2..1e-1 s; WAN ~1 s");

  for (const std::size_t resolution : {200u, 300u, 500u}) {
    for (const session::Case which :
         {session::Case::kLanData, session::Case::kWanStreaming,
          session::Case::kWanWithLanDepot}) {
      session::ExperimentConfig cfg = bench::paper_config(resolution, which);
      cfg.all_filler = true;
      cfg.client.decode = false;
      cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
      const session::ScenarioResult result =
          session::run_scenario(session::single_walk(cfg));
      const auto& walk = result.clients.front();

      std::printf("\n# %zux%zu %s — comm seconds per access (class)\n", resolution,
                  resolution, session::to_string(which));
      for (std::size_t n = 0; n < walk.accesses.size(); ++n) {
        std::printf("%zu\t%.3e\t%s\n", n + 1, to_seconds(walk.accesses[n].comm_latency),
                    streaming::to_string(walk.accesses[n].cls));
      }
      std::printf("# mean comm: hit=%.2e s lan=%.2e s wan=%.2e s\n",
                  walk.summary.mean_comm_hit_s, walk.summary.mean_comm_lan_s,
                  walk.summary.mean_comm_wan_s);
    }
  }
  return 0;
}
