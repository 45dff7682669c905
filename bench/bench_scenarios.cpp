// Adversarial scenario bench — the SLO harness of the overload-protection
// work. Each row is one deterministic session::run_scenario composition of
// the robustness machinery (admission + degradation + augmentation, faults +
// retries + repair, staging leases, site caching); ci/perf_gate.py hard-fails
// on the virtual-time metrics.
//
// Rows:
//   flash_crowd/admission    100+ viewers, WAN, admission + ladder on
//   flash_crowd/no_admission the same crowd with no overload protection
//   teleport_faults          teleport browsing under crash/drop/corruption
//   lease_expiry             staging-lease expiry wave mid-playback
//   site_cache/cold          browse racing prestaging (co-sited agents)
//   site_cache/warm          browse after prestaging completed
//   pda_link/lod             PDA-class link, continuous LOD streaming on
//   pda_link/full            the same link, full resolution only (control)
//   co_sited/site            co-sited crowd, cooperative site cache on
//   co_sited/control         the same crowd, every agent restages alone
//
// Flags:
//   --smoke   smaller configuration for the CI perf gate (fast, deterministic)
//   --json    machine-readable output (one JSON object) for ci/perf_gate.py
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "session/scenario.hpp"

namespace {

using namespace lon;

struct Row {
  session::ScenarioResult r;
  double slo_s = 0.0;
  std::size_t deadline_misses = 0;  ///< accesses whose total latency blew the SLO
};

Row run(session::Scenario scenario) {
  Row row;
  row.slo_s = to_seconds(scenario.slo_deadline);
  row.r = session::run_scenario(scenario);
  for (const auto& pc : row.r.clients) {
    for (const auto& a : pc.accesses) {
      if (to_seconds(a.total()) > row.slo_s) ++row.deadline_misses;
    }
  }
  return row;
}

/// JSON counter fields as {json key, registry counter name}, each summed
/// over every instance in the run. Two tables so deadline_misses keeps its
/// place between them in the output.
struct CounterField {
  const char* key;
  const char* counter;
};
constexpr CounterField kOverloadFields[] = {
    {"demand_shed", "agent.demand_shed"},
    {"shed_retries", "session.shed_retries"},
    {"downgrades", "agent.downgrades"},
    {"upgrades", "agent.upgrades"},
    {"degrade_lod", "agent.degrade_lod"},
    {"hot_reports", "agent.hot_reports"},
    {"augments", "server.augments"},
    {"failovers", "lors.failovers"},
    {"corruption_detected", "lors.corruption_detected"},
};
constexpr CounterField kLodSiteFields[] = {
    {"lod_coarse_serves", "agent.lod_coarse_serves"},
    {"lod_refinements", "agent.lod_refinements"},
    {"lod_refined", "agent.lod_refined"},
    {"restaged", "agent.restaged"},
    {"restage_coalesced", "agent.restage_coalesced"},
    {"site_hits", "agent.site_hits"},
    {"site_adopted", "agent.site_adopted"},
    {"stage_wan_bytes", "agent.stage_wan_bytes"},
    {"site_restage_leaders", "site.restage_leaders"},
    {"site_restage_keys", "site.restage_keys"},
    {"site_fetch_leaders", "site.fetch_leaders"},
    {"site_fetch_joins", "site.fetch_joins"},
    {"site_fetch_keys", "site.fetch_keys"},
    {"site_handoff_bytes", "site.handoff_bytes"},
};

unsigned long long total(const session::ScenarioResult& r, const char* counter) {
  return static_cast<unsigned long long>(r.obs->metrics.counter_total(counter));
}

void print_counters(const session::ScenarioResult& r,
                    std::span<const CounterField> fields) {
  for (const CounterField& f : fields) {
    std::printf("\"%s\":%llu,", f.key, total(r, f.counter));
  }
}

void print_json(const std::vector<Row>& rows, bool smoke) {
  std::printf("{\"bench\":\"scenarios\",\"mode\":\"%s\",\"results\":[",
              smoke ? "smoke" : "full");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const session::ScenarioResult& r = rows[i].r;
    std::printf(
        "%s{\"name\":\"%s\",\"clients\":%zu,\"accesses\":%zu,\"failed\":%zu,"
        "\"min_delivered\":%zu,\"mean_total_s\":%.6f,\"p99_worst_s\":%.6f,"
        "\"p99_mean_s\":%.6f,\"slo_s\":%.3f,\"shed_fraction\":%.4f,",
        i == 0 ? "" : ",", r.name.c_str(), r.clients.size(), r.total_accesses,
        r.failed_accesses, r.min_client_delivered, r.mean_total_s, r.p99_worst_s,
        r.p99_mean_s, rows[i].slo_s, r.shed_fraction);
    print_counters(r, kOverloadFields);
    std::printf("\"deadline_misses\":%zu,", rows[i].deadline_misses);
    print_counters(r, kLodSiteFields);
    std::printf("\"virtual_duration_s\":%.3f}", to_seconds(r.duration));
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  // The ISSUE's acceptance bar is a >= 100-client flash crowd; the smoke
  // configuration *is* the gated configuration, so it runs the full crowd.
  const int crowd = smoke ? 100 : 200;
  const int browsers = smoke ? 4 : 8;

  std::vector<Row> rows;
  rows.push_back(run(session::flash_crowd(crowd, /*admission=*/true)));
  rows.push_back(run(session::flash_crowd(crowd, /*admission=*/false)));
  rows.push_back(run(session::teleport_under_faults(browsers)));
  rows.push_back(run(session::lease_expiry_wave(browsers)));
  rows.push_back(run(session::site_cache(/*warm=*/false, browsers)));
  rows.push_back(run(session::site_cache(/*warm=*/true, browsers)));
  rows.push_back(run(session::pda_link(/*lod_streaming=*/true)));
  rows.push_back(run(session::pda_link(/*lod_streaming=*/false)));
  rows.push_back(run(session::co_sited_crowd(/*site=*/true, crowd)));
  rows.push_back(run(session::co_sited_crowd(/*site=*/false, crowd)));

  if (json) {
    print_json(rows, smoke);
    return 0;
  }

  bench::print_header(
      "Adversarial scenarios: overload protection and graceful degradation",
      "flash crowd, faults, lease waves, cold/warm site cache — SLO harness");
  std::printf("%-26s %8s %9s %7s %10s %10s %10s %7s %7s %7s %7s %7s %7s\n", "scenario",
              "clients", "accesses", "failed", "mean (s)", "p99-worst", "p99-mean",
              "miss", "shed", "retry", "lod", "coarse", "refind");
  for (const Row& row : rows) {
    const session::ScenarioResult& r = row.r;
    std::printf(
        "%-26s %8zu %9zu %7zu %10.3f %10.3f %10.3f %7zu %7llu %7llu %7llu %7llu %7llu\n",
        r.name.c_str(), r.clients.size(), r.total_accesses, r.failed_accesses,
        r.mean_total_s, r.p99_worst_s, r.p99_mean_s, row.deadline_misses,
        total(r, "agent.demand_shed"), total(r, "session.shed_retries"),
        total(r, "agent.degrade_lod"), total(r, "agent.lod_coarse_serves"),
        total(r, "agent.lod_refined"));
  }
  return 0;
}
