// pda_client: remote visualization on a thin client (paper sections 1, 4.2).
//
//   $ ./pda_client
//
// "The rendering process of a light field database is simply a sequence of
// table lookup operations, enabling the use of client devices, such as PDAs,
// that lack even graphics acceleration." And from the results: "for those
// low-end devices it is sufficiently fast for a client to request a new view
// set whenever it needs to, without any local caching on the client at all."
//
// This example models a 2003-era PDA: a small 150x150 display, a slow CPU
// (modeled 4 MB/s decompression), no local view-set cache beyond the current
// set — and shows that with the client agent + LAN depot doing the heavy
// lifting, browsing stays interactive.
#include <cstdio>
#include <iostream>

#include "session/scenario.hpp"

int main() {
  using namespace lon;

  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;
  cfg.lattice.view_set_span = 3;
  cfg.lattice.view_resolution = 150;  // "such resolution corresponds to
                                      //  lightweight devices such as PDAs"
  cfg.which = session::Case::kWanWithLanDepot;
  cfg.accesses = 20;
  cfg.dwell = 3 * kSecond;  // a PDA user browses deliberately

  cfg.client.display_resolution = 150;
  cfg.client.keep_view_sets = 1;  // no local caching beyond the current set
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  cfg.client.decompress_bytes_per_sec = 4e6;  // a 2003 handheld CPU

  std::printf("PDA session: 150x150 display, 4 MB/s decompression, no local cache,\n"
              "WAN database with aggressive LAN-depot prestaging...\n\n");
  const session::AccessSummary summary =
      session::run_scenario(session::single_walk(cfg)).clients.front().summary;

  session::print_summary(std::cout, "pda over case 3", summary);

  const double worst = summary.max_total_s;
  std::printf("\nworst view-set swap: %.2f s; decompression share: %.2f s mean\n",
              worst, summary.mean_decompress_s);
  if (summary.mean_total_phase2_s < 1.5) {
    std::printf("=> after the initial phase the PDA browses interactively, as the\n"
                "   paper argues: the agent and depots absorb all the heavy work.\n");
  } else {
    std::printf("=> latencies remain high; on this configuration a PDA would need\n"
                "   a slower movement rate (QGR).\n");
  }
  return 0;
}
