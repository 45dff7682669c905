// The Quality Guaranteed Rate (paper section 4.2).
//
// "When prefetching and client agent caching are enabled, latencies to
// obtain a new view set from a server depot could be hidden from the client,
// provided that the user movement is sufficiently slow. We refer to such
// sufficiently slow rate of user movement as Quality Guaranteed Rate (QGR).
// The QGR of case 2 ... is significantly slower than the QGR's in case 1
// and 3."
//
// This bench makes the QGR concrete: for each case it sweeps the user's
// dwell time downward and reports the fraction of accesses that stayed
// "smooth" (served within a quality threshold), plus the slowest dwell at
// which 95% of accesses are smooth — lower is a faster permissible user.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace lon;

double smooth_fraction(const std::vector<streaming::AccessRecord>& accesses,
                       double threshold_s) {
  std::size_t smooth = 0;
  for (const auto& a : accesses) {
    if (to_seconds(a.total()) <= threshold_s) ++smooth;
  }
  return static_cast<double>(smooth) / static_cast<double>(accesses.size());
}

}  // namespace

int main() {
  bench::print_header(
      "Section 4.2: Quality Guaranteed Rate (QGR)",
      "case 2's QGR is significantly slower than cases 1 and 3");

  constexpr double kThresholdSeconds = 0.25;  // "smooth" view-set swap budget
  const std::vector<double> dwells = {4.0, 1.0, 0.25, 0.1};

  std::printf("smooth = fraction of accesses delivered within %.2f s\n\n",
              kThresholdSeconds);
  std::printf("%-26s", "dwell between moves (s):");
  for (const double d : dwells) std::printf(" %8.2f", d);
  std::printf("   QGR dwell\n");

  for (const session::Case which :
       {session::Case::kLanData, session::Case::kWanStreaming,
        session::Case::kWanWithLanDepot}) {
    std::printf("%-26s", session::to_string(which));
    double qgr = -1.0;
    for (const double dwell : dwells) {
      session::ExperimentConfig cfg = bench::small_config(200, which);
      cfg.wan_bandwidth_bps = 50e6;
      cfg.dwell = from_seconds(dwell);
      const auto result = session::run_scenario(session::single_walk(cfg));
      const double smooth =
          smooth_fraction(result.clients.front().accesses, kThresholdSeconds);
      if (smooth >= 0.95) qgr = dwell;  // slowest-to-fastest order: keep last
      std::printf(" %8.2f", smooth);
    }
    if (qgr > 0) {
      std::printf("   <= %.2f s\n", qgr);
    } else {
      std::printf("   > %.2f s\n", dwells.front());
    }
  }
  std::printf("\n(the QGR dwell is the fastest tested movement rate at which >=95%%\n"
              " of view-set swaps stay smooth; smaller is better)\n");
  return 0;
}
