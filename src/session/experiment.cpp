#include "session/experiment.hpp"

#include "session/system.hpp"
#include "util/log.hpp"

namespace lon::session {

const char* to_string(Case c) {
  switch (c) {
    case Case::kLanData:
      return "case1-data-in-lan";
    case Case::kWanStreaming:
      return "case2-data-in-wan";
    case Case::kWanWithLanDepot:
      return "case3-with-lan-depot";
  }
  return "?";
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  System sys(config, 1);
  const lightfield::SphericalLattice& lattice = sys.source.lattice();

  const CursorScript script =
      config.script.has_value()
          ? *config.script
          : CursorScript::standard(lattice, config.dwell, config.accesses, config.seed);
  PublishResult& published = sys.publish(config, {&script});

  sys.make_agent(config);
  sys.make_server_agent(config);
  sys.make_clients(config);
  streaming::Client& client = *sys.clients.front();
  sim::Simulator& sim = sys.sim;

  // --- Orchestrated run -------------------------------------------------------
  // "As soon as visualization of a dataset begins, aggressive prestaging to
  // the LAN depot is initiated."
  const SimTime script_start = sim.now();
  sys.agent->start_staging();

  fault::FaultInjector injector(sim, sys.net, sys.fabric, sys.obs.get());
  sys.arm_faults(injector, config.faults, script_start);
  sys.start_repair(config);

  bool done = false;
  std::size_t step_index = 0;
  std::size_t failed_accesses = 0;
  // Each step waits until its view is renderable, then dwells before moving:
  // the orchestrated operator moves at a controlled rate but never abandons
  // a pending view (which keeps the access count at exactly `accesses`).
  std::function<void()> advance = [&] {
    if (step_index >= script.size()) {
      done = true;
      return;
    }
    const CursorStep step = script.steps()[step_index++];
    client.set_view(step.direction, [&, step](bool ok) {
      if (!ok) {
        ++failed_accesses;
        LON_LOG(kWarn, "experiment") << "view request failed; continuing";
      }
      sim.after(step.dwell, advance);
    });
  };
  advance();
  while (!done && sim.step()) {
  }
  const SimTime script_end = sim.now();

  // --- Results ----------------------------------------------------------------
  ExperimentResult result;
  result.accesses = client.accesses();
  result.summary = summarize(result.accesses);
  result.staged_at_end = sys.agent->metrics().staged.value();
  result.staging_complete = sys.agent->staging_complete();
  result.script_duration = script_end - script_start;
  result.db_compressed_bytes = static_cast<double>(published.compressed_bytes);
  result.db_uncompressed_bytes = static_cast<double>(published.uncompressed_bytes);
  result.compression_ratio =
      result.db_compressed_bytes > 0
          ? result.db_uncompressed_bytes / result.db_compressed_bytes
          : 0.0;
  result.failed_accesses = failed_accesses;
  obs::Registry& metrics = sys.obs->metrics;
  metrics.counter("sim.events_executed", "component=simnet").inc(sim.executed());
  metrics.counter("sim.events_scheduled", "component=simnet").inc(sim.scheduled());
  metrics.counter("sim.events_cancelled", "component=simnet").inc(sim.cancelled());
  metrics.counter("net.reallocs", "component=simnet").inc(sys.net.reallocs());
  metrics.counter("net.realloc_requests", "component=simnet")
      .inc(sys.net.realloc_requests());
  metrics.counter("net.realloc_flows_touched", "component=simnet")
      .inc(sys.net.realloc_flows_touched());
  result.obs = std::move(sys.obs);
  return result;
}

}  // namespace lon::session
