// Phase-timed benchmark program.
//
// Runs one workload through the public session::System API in phases —
// construction, publish, agent/client creation, then the browse loop over
// sim.step() driven exactly like session::run_scenario — so set-up, browsing
// and frame synthesis are timed apart from outside the program. With
// --trace 0 it reports the end-to-end metrics from untraced runs; with
// --trace 1 it reports per-layer metrics read from the program's own spans
// and obs::Registry counters plus direct timings of the layer functions, and
// writes the span tree of the slowest access as a Chrome trace.
//
// Usage:
//   lonlf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <dir> [--commit <id>]
// Prints one JSON object on stdout; exits non-zero when a self-check or an
// output-correctness check fails. README.md describes the workloads.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compress/lfz.hpp"
#include "lightfield/procedural.hpp"
#include "lightfield/renderer.hpp"
#include "session/scenario.hpp"
#include "session/system.hpp"
#include "util/checksum.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"

#ifndef __OPTIMIZE__
#error "perfbench refuses unoptimized builds: use -DCMAKE_BUILD_TYPE=Release"
#endif

namespace {

using namespace lon;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A failed self-check or correctness check: the run reports no numbers.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// --- Statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile of `v` (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Tail {
  double p = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest percentile, up to p99, with at least ten samples beyond it
/// (p50 when there are too few samples for any).
Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (const double p : {0.99, 0.95, 0.9, 0.8, 0.75, 0.5}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    if (v.size() >= rank + 10) {
      t.p = p;
      break;
    }
  }
  t.value = percentile(v, t.p);
  return t;
}

// --- Workloads ------------------------------------------------------------------

struct Workload {
  std::string name;
  /// Scenario for one session seed; session seed 0 is the canonical row.
  std::function<session::Scenario(std::uint64_t)> make;
  [[nodiscard]] session::Scenario scenario(std::uint64_t seed) const {
    session::Scenario s = make(seed);
    // The seed also drives the WAN latency-jitter stream (7 is the
    // canonical stream; 0 would switch jitter off).
    s.base.net_seed = 7 + seed;
    return s;
  }
  /// Sessions whose virtual results pool into one run's metrics. Fixed per
  /// workload so the virtual-time metrics do not depend on host speed.
  std::size_t sessions = 1;
  /// Leading clients that time render_frame at every cursor step.
  int frame_clients = 1;
};

session::Scenario paper_case3(std::uint64_t seed) {
  // The paper's own configuration (bench::paper_config(200, case 3)), with
  // modeled decompression so virtual time stays deterministic. The paper
  // runs every test on the same standard walk; a seed turns that walk by
  // whole view-set columns of longitude, so it visits as many view sets (and
  // set-up builds as much real content) on every seed.
  session::Scenario s;
  s.name = "paper_case3";
  s.base.lattice = lightfield::LatticeConfig::paper(200);
  s.base.which = session::Case::kWanWithLanDepot;
  s.base.accesses = 58;
  s.base.dwell = 2 * kSecond;
  s.base.client.display_resolution = 200;
  s.base.client.timing = streaming::ClientConfig::Timing::kModeled;
  const lightfield::SphericalLattice lattice(s.base.lattice);
  const session::CursorScript walk =
      session::CursorScript::standard(lattice, s.base.dwell, s.base.accesses, s.base.seed);
  const double column =
      s.base.lattice.view_set_span * deg2rad(s.base.lattice.angular_step_deg);
  const double turn = static_cast<double>(seed % lattice.view_set_cols()) * column;
  std::vector<session::CursorStep> steps = walk.steps();
  if (turn > 0.0) {
    for (auto& step : steps) {
      step.direction.phi = std::fmod(step.direction.phi + turn, 2.0 * kPi);
    }
  }
  session::ScenarioClient client;
  client.script = session::CursorScript(std::move(steps));
  s.clients.push_back(std::move(client));
  return s;
}

session::Scenario crowd_1000(std::uint64_t seed) {
  // bench_scalability_users' full crowd row: run_multi_client's scenario.
  session::Scenario s;
  s.name = "crowd_1000";
  s.base.admission.enabled = true;
  s.base.admission.max_queue = 8;
  s.base.admission.tokens_per_sec = 2.0;
  s.base.admission.token_burst = 4.0;
  s.base.admission.deadline_triage = false;
  s.base.client.shed_retry.max_attempts = 8;
  s.base.client.shed_retry.base_backoff = 250 * kMillisecond;
  s.base.lattice.angular_step_deg = 7.5;
  s.base.lattice.view_set_span = 3;
  s.base.lattice.view_resolution = 200;
  s.base.which = session::Case::kWanWithLanDepot;
  s.base.all_filler = true;
  s.base.client.decode = false;
  s.base.client.timing = streaming::ClientConfig::Timing::kModeled;
  s.base.pool = &ThreadPool::shared();
  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (int i = 0; i < 1000; ++i) {
    session::ScenarioClient sc;
    sc.script = session::CursorScript::standard(
        lattice, s.base.dwell, 8, 100 + seed * 1000 + static_cast<std::uint64_t>(i));
    sc.start = static_cast<SimDuration>(i) * (250 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

session::Scenario co_sited(std::uint64_t seed) {
  session::Scenario s = session::co_sited_crowd(true, 100);
  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (std::size_t i = 0; i < s.clients.size(); ++i) {
    s.clients[i].script = session::CursorScript::standard(
        lattice, s.base.dwell, 12, 1300 + seed * 100 + static_cast<std::uint64_t>(i));
  }
  return s;
}

session::Scenario faulted(std::uint64_t) {
  // The teleport walks and the fault plan are fixed; the seed reaches this
  // workload through the WAN jitter stream alone. (Moving the walks moves
  // which accesses land in the crash window, which swings the tail by 2x.)
  return session::teleport_under_faults(4);
}

std::vector<Workload> workloads() {
  return {
      {"paper_case3", paper_case3, 1, 1},
      {"crowd_1000", crowd_1000, 5, 2},
      {"co_sited_crowd", co_sited, 12, 1},
      {"faulted_browse", faulted, 8, 1},
  };
}

// --- The phase-timed session ---------------------------------------------------

struct Session {
  // Wall-clock phases (seconds).
  double build_s = 0.0;
  double publish_s = 0.0;
  double agents_s = 0.0;
  double browse_s = 0.0;  ///< simulation only: frame synthesis excluded
  /// Per cursor step of the framing clients: the median of kFramesPerStep
  /// back-to-back render_frame calls, so one preempted call does not count
  /// as a slow step.
  std::vector<double> frame_ms;

  // Virtual outputs.
  std::vector<std::vector<streaming::AccessRecord>> accesses;  ///< per client
  std::vector<double> delivered_ms;  ///< latency of every delivered access
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t reallocs = 0;
  std::uint64_t realloc_flows = 0;
  std::uint64_t trunk_bytes = 0;     ///< WAN trunk, both directions, while browsing
  std::uint64_t trunk_bytes_max = 0; ///< the busier direction
  SimDuration browse_virtual = 0;    ///< browse start to last completion
  double trunk_bps = 0.0;
  std::vector<lightfield::ViewSetId> real_ids;  ///< view sets published with real pixels
  std::shared_ptr<obs::Context> obs;
};

/// The frame check's reference: a local Renderer over view sets built fresh
/// from a second source, never compressed. Holds one set at a time, like a
/// client with keep_view_sets = 1.
class FrameReference {
 public:
  explicit FrameReference(const lightfield::LatticeConfig& lattice)
      : source_(lattice), renderer_(lattice) {}

  /// The frame a client holding only `id`'s view set shows for `dir`.
  render::ImageRGB8 render(const lightfield::ViewSetId& id, const Spherical& dir,
                           std::size_t res) {
    if (!renderer_.has_view_set(id)) {
      if (held_.has_value()) renderer_.remove_view_set(*held_);
      renderer_.add_view_set(source_.build(id));
      held_ = id;
    }
    if (renderer_.can_render(dir)) return renderer_.render(dir, res);
    const auto& lattice = renderer_.lattice();
    const auto [row, col] = lattice.nearest_sample(dir);
    const Spherical snapped = lattice.sample_direction(row, col);
    if (renderer_.can_render(snapped)) return renderer_.render(snapped, res);
    return render::ImageRGB8(res, res);
  }

 private:
  lightfield::ProceduralSource source_;
  lightfield::Renderer renderer_;
  std::optional<lightfield::ViewSetId> held_;
};

/// render_frame calls per completed cursor step of a framing client.
constexpr int kFramesPerStep = 5;

/// One session through the phases. The first `frame_clients` clients time
/// render_frame at every completed step; with a reference (one framing
/// client only) every such frame is checked against it.
Session run_session(const session::Scenario& scenario, bool traced, int frame_clients,
                    FrameReference* reference) {
  Session out;
  const session::ExperimentConfig& config = scenario.base;
  const int n_clients = static_cast<int>(scenario.clients.size());

  // Phase 1: construction.
  auto t = Clock::now();
  session::System sys(config, n_clients);
  sys.obs->trace.set_enabled(traced);
  out.build_s = seconds_since(t);

  // Phase 2: publish.
  t = Clock::now();
  std::vector<const session::CursorScript*> script_ptrs;
  for (const auto& sc : scenario.clients) script_ptrs.push_back(&sc.script);
  sys.publish(config, script_ptrs);
  out.publish_s = seconds_since(t);

  // Phase 3: agents and clients.
  t = Clock::now();
  sys.make_agent(config);
  sys.make_server_agent(config);
  sys.make_clients(config);
  out.agents_s = seconds_since(t);

  // Phase 4: browse, driven exactly like session::run_scenario.
  const auto browse_start = Clock::now();
  double excluded_s = 0.0;  // frame synthesis and frame checks inside callbacks
  sim::Simulator& sim = sys.sim;
  const sim::LinkId trunk = sys.net.link_between(sys.lan_switch, sys.wan_router).value();
  const std::uint64_t fwd0 = sys.net.link_stats(trunk, true).bytes_carried;
  const std::uint64_t rev0 = sys.net.link_stats(trunk, false).bytes_carried;

  SimTime script_start = sim.now();
  sys.start_staging();
  if (scenario.warm_site_cache) {
    while (!sys.staging_complete() && sim.step()) {
    }
    script_start = sim.now();
  }
  fault::FaultInjector injector(sim, sys.net, sys.fabric, sys.obs.get());
  sys.arm_faults(injector, config.faults, script_start);
  sys.start_repair(config);

  struct Walker {
    std::size_t step = 0;
    std::size_t failed = 0;
  };
  std::vector<Walker> walkers(scenario.clients.size());
  std::string step_error;
  int remaining = n_clients;
  std::vector<std::function<void()>> advance(scenario.clients.size());
  for (int i = 0; i < n_clients; ++i) {
    const auto ci = static_cast<std::size_t>(i);
    advance[ci] = [&, ci] {
      Walker& d = walkers[ci];
      const session::CursorScript& script = scenario.clients[ci].script;
      if (d.step >= script.size()) {
        --remaining;
        return;
      }
      const session::CursorStep step = script.steps()[d.step++];
      streaming::Client& client = *sys.clients[ci];
      const lightfield::ViewSetId id =
          client.renderer().lattice().view_set_of(step.direction);
      // A step yields exactly one access record when its view set is not
      // resident, none otherwise — delivered or failed, never lost or doubled.
      const std::size_t expect = client.renderer().has_view_set(id) ? 0 : 1;
      const std::size_t before = client.accesses().size();
      client.set_view(step.direction, [&, ci, step, id, expect, before](bool ok) {
        streaming::Client& c = *sys.clients[ci];
        const std::size_t added = c.accesses().size() - before;
        if (step_error.empty() &&
            (added != expect || (added == 1 && !(c.accesses().back().id == id)))) {
          step_error = "client " + std::to_string(ci) + " step " +
                       std::to_string(walkers[ci].step) + " produced " +
                       std::to_string(added) + " access records, expected " +
                       std::to_string(expect);
        }
        if (!ok) ++walkers[ci].failed;
        if (ok && added == 1) {
          out.delivered_ms.push_back(to_seconds(c.accesses().back().total()) * 1e3);
        }
        if (ok && ci < static_cast<std::size_t>(frame_clients)) {
          const auto f0 = Clock::now();
          render::ImageRGB8 frame;
          std::vector<double> step_ms;
          for (int f = 0; f < kFramesPerStep; ++f) {
            const auto r0 = Clock::now();
            frame = c.render_frame();
            step_ms.push_back(seconds_since(r0) * 1e3);
          }
          out.frame_ms.push_back(median(step_ms));
          if (reference != nullptr && step_error.empty()) {
            const render::ImageRGB8 expected = reference->render(
                id, c.view_direction(), frame.width());
            if (!(expected.bytes() == frame.bytes())) {
              step_error = "frame at step " + std::to_string(walkers[ci].step) +
                           " differs from the never-compressed reference";
            }
          }
          excluded_s += seconds_since(f0);
        }
        sim.after(step.dwell, advance[ci]);
      });
    };
    sim.after(scenario.clients[ci].start, advance[ci]);
  }
  while (remaining > 0 && sim.step()) {
  }
  const SimTime script_end = sim.now();
  if (scenario.drain) {
    while (sim.step()) {
    }
  }
  out.browse_s = seconds_since(browse_start) - excluded_s;
  check(remaining == 0, "browse loop stopped with unfinished scripts");
  check(step_error.empty(), step_error);

  out.browse_virtual = script_end - script_start;
  out.sim_events = sim.executed();
  out.reallocs = sys.net.reallocs();
  out.realloc_flows = sys.net.realloc_flows_touched();
  const std::uint64_t fwd = sys.net.link_stats(trunk, true).bytes_carried - fwd0;
  const std::uint64_t rev = sys.net.link_stats(trunk, false).bytes_carried - rev0;
  out.trunk_bytes = fwd + rev;
  out.trunk_bytes_max = std::max(fwd, rev);
  out.trunk_bps = config.wan_bandwidth_bps;
  for (std::size_t ci = 0; ci < sys.clients.size(); ++ci) {
    out.accesses.push_back(sys.clients[ci]->accesses());
    out.attempted += out.accesses.back().size();
    out.failed += walkers[ci].failed;
  }
  if (!config.all_filler) {
    for (const auto& sc : scenario.clients) {
      for (const auto& step : sc.script.steps()) {
        const auto id = sys.source.lattice().view_set_of(step.direction);
        if (std::find(out.real_ids.begin(), out.real_ids.end(), id) == out.real_ids.end()) {
          out.real_ids.push_back(id);
        }
      }
    }
  } else {
    out.real_ids.push_back(sys.source.lattice().all_view_sets().front());
  }
  out.obs = std::move(sys.obs);
  return out;
}

/// Every access record field that virtual time determines, plus the
/// simulator's event and max-min solve counts and the failure count.
void expect_same_virtual(const Session& a, const Session& b, const std::string& what) {
  check(a.accesses.size() == b.accesses.size(), what + ": client count differs");
  for (std::size_t c = 0; c < a.accesses.size(); ++c) {
    check(a.accesses[c].size() == b.accesses[c].size(), what + ": access count differs");
    for (std::size_t i = 0; i < a.accesses[c].size(); ++i) {
      const auto& x = a.accesses[c][i];
      const auto& y = b.accesses[c][i];
      check(x.id == y.id && x.cls == y.cls && x.requested == y.requested &&
                x.delivered == y.delivered && x.comm_latency == y.comm_latency &&
                x.decompress_time == y.decompress_time &&
                x.compressed_bytes == y.compressed_bytes,
            what + ": access " + std::to_string(i) + " of client " + std::to_string(c) +
                " differs");
    }
  }
  check(a.sim_events == b.sim_events, what + ": sim.executed differs");
  check(a.reallocs == b.reallocs, what + ": net.reallocs differs");
  check(a.failed == b.failed, what + ": failed accesses differ");
}

/// run_scenario's virtual outputs, in the shape expect_same_virtual compares.
Session virtual_of(const session::ScenarioResult& r) {
  Session s;
  for (const auto& client : r.clients) s.accesses.push_back(client.accesses);
  s.sim_events = r.sim_events;
  s.reallocs = r.net_reallocs;
  s.failed = r.failed_accesses;
  return s;
}

// --- JSON output ----------------------------------------------------------------

class Json {
 public:
  /// Non-finite values become null, which run.py rejects.
  void num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    field(key, std::isfinite(v) ? os.str() : "null");
  }
  void str(const std::string& key, const std::string& v) { field(key, quote(v)); }
  void raw(const std::string& key, const std::string& json) { field(key, json); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
        continue;
      }
      q += c;
    }
    return q + "\"";
  }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += quote(key) + ":" + value;
  }
  std::string body_;
};

/// A metric value with its unit, as BENCHMARK.json names them.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string metrics_json(const Metrics& m) {
  Json j;
  for (const auto& [name, metric] : m) {
    Json v;
    v.num("value", metric.value);
    v.str("unit", metric.unit);
    j.raw(name, v.done());
  }
  return j.done();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- End-to-end metrics (untraced) ------------------------------------------------

constexpr double kDeadlineMs = 1000.0;  ///< the paper's interactivity deadline

struct Pooled {
  std::vector<double> latency_ms;  ///< delivered accesses
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t within_deadline = 0;
  std::uint64_t trunk_bytes = 0;
};

void pool_session(Pooled& p, const Session& s) {
  p.attempted += s.attempted;
  p.failed += s.failed;
  p.trunk_bytes += s.trunk_bytes;
  for (const double ms : s.delivered_ms) {
    p.latency_ms.push_back(ms);
    if (ms <= kDeadlineMs) ++p.within_deadline;
  }
}

struct Env {
  std::string commit;
  std::uint64_t seed = 0;
};

std::string env_json(const Env& env) {
  Json j;
  j.num("nproc", std::thread::hardware_concurrency());
  j.num("pool_threads", static_cast<double>(ThreadPool::shared().size()));
  j.str("build_type", LONLF_BUILD_TYPE);
  j.str("compiler", LONLF_COMPILER);
  j.str("commit", env.commit);
  j.num("seed", static_cast<double>(env.seed));
  return j.done();
}

std::string list_json(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(6);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i > 0 ? "," : "") << v[i];
  return os.str() + "]";
}

std::string tail_json(const Tail& t) {
  Json j;
  j.num("percentile", t.p * 100.0);
  j.num("samples", static_cast<double>(t.samples));
  return j.done();
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds, const Env& env) {
  // Frames are checkable wherever the client decodes real content: they must
  // equal a local Renderer's output over never-compressed view sets.
  std::optional<FrameReference> reference;
  const session::ExperimentConfig base = w.scenario(seed * w.sessions).base;
  if (base.client.decode && !base.all_filler) reference.emplace(base.lattice);

  std::vector<double> setup_s;
  Pooled pooled;
  std::size_t iterations = 0;
  const auto start = Clock::now();
  while (iterations < w.sessions || seconds_since(start) < seconds) {
    const std::uint64_t session_seed = seed * w.sessions + iterations % w.sessions;
    // The first pass renders and checks frames where there is a reference;
    // frame times are per-layer metrics of the traced run.
    const bool check_frames = iterations < w.sessions && reference;
    const Session s = run_session(w.scenario(session_seed), false, check_frames ? 1 : 0,
                                  check_frames ? &*reference : nullptr);
    setup_s.push_back(s.build_s + s.publish_s + s.agents_s);
    if (iterations < w.sessions) pool_session(pooled, s);
    ++iterations;
  }

  // The first session warms the process up (allocator arenas, pool threads,
  // page faults); its set-up counts only when it is the run's only session.
  if (setup_s.size() > 1) setup_s.erase(setup_s.begin());
  const Tail access_tail = tail_of(pooled.latency_ms);
  const double attempted = static_cast<double>(pooled.attempted);
  const std::size_t delivered = pooled.attempted - pooled.failed;
  Metrics m;
  m["setup_s"] = {median(setup_s), "s"};
  m["access_mean_ms"] = {mean(pooled.latency_ms), "ms"};
  m["access_tail_ms"] = {access_tail.value, "ms"};
  m["deadline_met_frac"] = {static_cast<double>(pooled.within_deadline) / attempted,
                            "ratio"};
  m["delivered_frac"] = {static_cast<double>(delivered) / attempted, "ratio"};
  m["wan_bytes_per_access"] = {static_cast<double>(pooled.trunk_bytes) /
                                   static_cast<double>(std::max<std::size_t>(1, delivered)),
                               "B"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  Json j;
  j.str("workload", w.name);
  j.raw("env", env_json(env));
  j.num("attempted", attempted);
  j.num("failed", static_cast<double>(pooled.failed));
  j.num("sessions", static_cast<double>(w.sessions));
  j.num("iterations", static_cast<double>(iterations));
  j.raw("access_tail", tail_json(access_tail));
  j.raw("setup_s_samples", list_json(setup_s));
  j.raw("metrics", metrics_json(m));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// --- Per-layer metrics (traced) -----------------------------------------------------

/// Spans of one traced session, with the helpers the layer metrics need.
class SpanView {
 public:
  explicit SpanView(const obs::Tracer& trace) : trace_(trace) {
    children_.resize(trace.spans().size() + 1);
    for (const obs::Span& s : trace.spans()) {
      if (s.parent != 0 && s.parent <= trace.spans().size()) {
        children_[s.parent].push_back(s.id);
      }
    }
  }

  [[nodiscard]] const std::vector<obs::Span>& spans() const { return trace_.spans(); }

  [[nodiscard]] std::string root_name(const obs::Span& s) const {
    const obs::Span* root = trace_.find(trace_.root_of(s.id));
    return root == nullptr ? std::string() : root->name;
  }

  static double ms(const obs::Span& s) { return to_seconds(s.end - s.begin) * 1e3; }

  /// Duration minus the part of it covered by child intervals.
  [[nodiscard]] double self_ms(const obs::Span& s) const {
    std::vector<std::pair<SimTime, SimTime>> cover;
    for (const obs::SpanId c : children_[s.id]) {
      const obs::Span& child = spans()[c - 1];
      if (child.instant || child.open) continue;
      const SimTime b = std::max(child.begin, s.begin);
      const SimTime e = std::min(child.end, s.end);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    SimDuration covered = 0;
    SimTime reach = s.begin;
    for (const auto& [b, e] : cover) {
      const SimTime from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    return to_seconds((s.end - s.begin) - covered) * 1e3;
  }

  /// Every span (and instant) whose root is `root`, in id order.
  [[nodiscard]] std::vector<obs::SpanId> tree_of(obs::SpanId root) const {
    std::vector<obs::SpanId> out{root};
    for (std::size_t i = 0; i < out.size(); ++i) {
      for (const obs::SpanId c : children_[out[i]]) out.push_back(c);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const obs::Tracer& trace_;
  std::vector<std::vector<obs::SpanId>> children_;
};

/// Writes the span tree under `root` as Chrome trace JSON, through the
/// program's own exporter (replayed into a private tracer).
void write_tail_trace(const SpanView& view, obs::SpanId root, const std::string& path) {
  obs::Tracer out;
  out.set_enabled(true);
  std::map<obs::SpanId, obs::SpanId> remap{{0, 0}};
  for (const obs::SpanId id : view.tree_of(root)) {
    const obs::Span& s = view.spans()[id - 1];
    const obs::SpanId parent = id == root ? 0 : remap.at(s.parent);
    const obs::SpanId copy = s.instant ? out.instant(s.name, s.begin, parent)
                                       : out.begin(s.name, s.begin, parent);
    for (const auto& [k, v] : s.args) out.arg(copy, k, v);
    if (!s.instant && !s.open) out.end(copy, s.end);
    remap[id] = copy;
  }
  std::ofstream os(path);
  check(static_cast<bool>(os), "cannot write " + path);
  out.write_chrome_trace(os);
}

/// Calls fn(i) for every i < n, sweep after sweep, until `budget_s` has
/// passed (at least one sweep). Returns the median over all calls of
/// work(i) / seconds taken.
template <typename W, typename F>
double median_rate(std::size_t n, double budget_s, W&& work, F&& fn) {
  std::vector<double> rates;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = Clock::now();
      fn(i);
      rates.push_back(work(i) / seconds_since(t));
    }
  } while (seconds_since(start) < budget_s);
  return median(rates);
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds, const Env& env,
               const std::string& out_dir) {
  // Traced sessions give the spans and counters, and time render_frame
  // between steps (outside their browse time); untraced sessions of the
  // same seeds give the phase walls and the tracing overhead. Both must
  // produce identical virtual outputs.
  const auto start = Clock::now();
  const double session_budget = 0.75 * seconds;
  // run_scenario goes first: besides being the reference for the self-check
  // it warms the process up, so neither replay below pays first-touch costs.
  const session::ScenarioResult reference =
      session::run_scenario(w.scenario(seed * w.sessions));
  std::vector<double> build_s, publish_s, browse_untraced, browse_traced, rate, frame_ms;
  std::vector<Session> traced;
  std::size_t iterations = 0;
  while (iterations < w.sessions || seconds_since(start) < session_budget) {
    const std::uint64_t session_seed = seed * w.sessions + iterations % w.sessions;
    const session::Scenario scenario = w.scenario(session_seed);
    // Alternate which replay goes first, so warm-up favours neither side of
    // the overhead ratio.
    std::optional<Session> plain_first;
    if (iterations % 2 == 0) plain_first = run_session(scenario, false, 0, nullptr);
    Session with = run_session(scenario, true, w.frame_clients, nullptr);
    Session plain =
        plain_first ? std::move(*plain_first) : run_session(scenario, false, 0, nullptr);
    expect_same_virtual(plain, with, "traced vs untraced");
    // The phase-timed loop must reproduce run_scenario bit for bit.
    if (iterations == 0) expect_same_virtual(virtual_of(reference), plain, "run_scenario");
    build_s.push_back(plain.build_s);
    publish_s.push_back(plain.publish_s);
    browse_untraced.push_back(plain.browse_s);
    browse_traced.push_back(with.browse_s);
    rate.push_back(static_cast<double>(plain.attempted) / plain.browse_s);
    frame_ms.insert(frame_ms.end(), with.frame_ms.begin(), with.frame_ms.end());
    if (iterations < w.sessions) traced.push_back(std::move(with));
    ++iterations;
  }

  // Span-derived layer timings, pooled over the workload's sessions.
  std::vector<double> fetch_self, decompress, dvs_query, demand_download, stage;
  double slowest_ms = -1.0;
  std::size_t slowest_session = 0;
  obs::SpanId slowest_root = 0;
  for (std::size_t si = 0; si < traced.size(); ++si) {
    const SpanView view(traced[si].obs->trace);
    for (const obs::Span& s : view.spans()) {
      if (s.instant || s.open) continue;
      const std::string root = view.root_name(s);
      if (s.name == "agent.fetch" && root == "client.request") {
        fetch_self.push_back(view.self_ms(s));
      } else if (s.name == "client.decompress") {
        decompress.push_back(SpanView::ms(s));
      } else if (s.name == "dvs.query") {
        dvs_query.push_back(SpanView::ms(s));
      } else if (s.name == "lors.download" && root == "client.request") {
        demand_download.push_back(SpanView::ms(s));
      } else if (s.name == "lors.augment" && root == "agent.stage") {
        stage.push_back(SpanView::ms(s));
      } else if (s.name == "client.request" && SpanView::ms(s) > slowest_ms) {
        slowest_ms = SpanView::ms(s);
        slowest_session = si;
        slowest_root = s.id;
      }
    }
  }
  check(slowest_root != 0, "traced run recorded no client.request span");
  const std::string trace_path = out_dir + "/" + w.name + ".tail_trace.json";
  write_tail_trace(SpanView(traced[slowest_session].obs->trace), slowest_root, trace_path);

  // Counter-derived layer metrics: sums over the sessions, so counts are
  // reported per session and everything else as a ratio of sums.
  std::map<std::string, double> c;
  const auto add = [&c](const std::string& key, double v) { c[key] += v; };
  for (const Session& s : traced) {
    const obs::Registry& r = s.obs->metrics;
    for (const char* name :
         {"agent.requests", "agent.hits", "agent.demand_shed", "agent.staged",
          "agent.stage_wan_bytes", "agent.refetches", "agent.prefetches", "prefetch.useful",
          "prefetch.bytes", "site.hits", "site.lookups", "site.restage_leaders",
          "site.restage_keys", "dvs.shard.waits", "lors.retries", "lors.failovers",
          "lors.corruption_detected", "fault.bits_flipped", "fault.crashes",
          "fault.disks_degraded", "fault.links_cut", "fault.requests_dropped",
          "fault.restarts"}) {
      add(name, static_cast<double>(r.counter_total(name)));
    }
    for (const auto& [labels, h] : r.histograms_named("session.shed_wait_ns")) {
      add("shed_wait_ns", static_cast<double>(h->sum()));
      add("shed_waits", static_cast<double>(h->count()));
    }
    add("spans", static_cast<double>(s.obs->trace.spans().size()));
    add("events", static_cast<double>(s.sim_events));
    add("reallocs", static_cast<double>(s.reallocs));
    add("flows", static_cast<double>(s.realloc_flows));
    add("trunk_bytes_max", static_cast<double>(s.trunk_bytes_max));
    add("trunk_capacity", s.trunk_bps / 8.0 * to_seconds(s.browse_virtual));
    for (const auto& client : s.accesses) {
      for (const auto& a : client) {
        add("accesses", 1.0);
        add("copied", static_cast<double>(a.copied_bytes));
        if (a.cls == streaming::AccessClass::kLanDepot) add("lan", 1.0);
        if (a.cls == streaming::AccessClass::kWan ||
            a.cls == streaming::AccessClass::kGenerated) {
          add("wan", 1.0);
        }
      }
    }
  }
  const double fault_total = c["fault.bits_flipped"] + c["fault.crashes"] +
                             c["fault.disks_degraded"] + c["fault.links_cut"] +
                             c["fault.requests_dropped"] + c["fault.restarts"];
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto per_session = [&traced](double v) {
    return v / static_cast<double>(traced.size());
  };

  // Direct timings of the layer functions on this workload's own inputs:
  // the view sets it publishes with real pixels.
  const double micro_budget = std::max(0.05, (seconds - seconds_since(start)) / 4.0);
  const session::Scenario scenario = w.scenario(seed * w.sessions);
  lightfield::ProceduralSource source(scenario.base.lattice);
  std::vector<lightfield::ViewSetId> ids = traced.front().real_ids;
  if (ids.size() > 4) ids.resize(4);
  std::vector<lightfield::ViewSet> sets;
  for (const auto& id : ids) sets.push_back(source.build(id));
  std::vector<Bytes> raw, packed;
  for (const auto& vs : sets) {
    raw.push_back(vs.serialize());
    packed.push_back(lfz::compress(raw.back()));
  }
  double raw_total = 0.0, packed_total = 0.0;
  std::vector<std::uint32_t> crcs;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw_total += static_cast<double>(raw[i].size());
    packed_total += static_cast<double>(packed[i].size());
    crcs.push_back(crc32(packed[i]));
  }
  const auto raw_mb = [&](std::size_t i) {
    return static_cast<double>(raw[i].size()) / 1e6;
  };
  const auto packed_mb = [&](std::size_t i) {
    return static_cast<double>(packed[i].size()) / 1e6;
  };
  const std::size_t n = ids.size();
  const double builds_per_ms = median_rate(
      n, micro_budget, [](std::size_t) { return 1e-3; },
      [&](std::size_t i) {
        check(source.build(ids[i]) == sets[i],
              "ProceduralSource::build is not deterministic");
      });
  const double encode_mb_s = median_rate(n, micro_budget, raw_mb, [&](std::size_t i) {
    check(!lfz::compress(raw[i]).empty(), "lfz::compress produced nothing");
  });
  const double decode_mb_s = median_rate(n, micro_budget, raw_mb, [&](std::size_t i) {
    check(lightfield::ViewSet::decompress(packed[i]) == sets[i],
          "ViewSet::decompress is not lossless");
  });
  const double crc_mb_s = median_rate(n, micro_budget, packed_mb, [&](std::size_t i) {
    check(crc32(packed[i]) == crcs[i], "lon::crc32 is not deterministic");
  });

  Metrics m;
  m["session.build_s"] = {median(build_s), "s"};
  m["session.publish_s"] = {median(publish_s), "s"};
  m["session.browse_s"] = {median(browse_untraced), "s"};
  m["session.browse_accesses_per_s"] = {median(rate), "1/s"};
  m["lightfield.build_ms"] = {1.0 / builds_per_ms, "ms"};
  const Tail frame_tail = tail_of(frame_ms);
  m["lightfield.frame_p50_ms"] = {percentile(frame_ms, 0.5), "ms"};
  m["lightfield.frame_tail_ms"] = {frame_tail.value, "ms"};
  m["compress.encode_mb_s"] = {encode_mb_s, "MB/s"};
  m["compress.decode_mb_s"] = {decode_mb_s, "MB/s"};
  m["compress.ratio"] = {ratio(raw_total, packed_total), "ratio"};
  m["util.crc32_mb_s"] = {crc_mb_s, "MB/s"};
  m["util.copy_bytes_per_access"] = {ratio(c["copied"], c["accesses"]), "B"};
  m["simnet.events"] = {per_session(c["events"]), "count"};
  m["simnet.events_per_s"] = {ratio(per_session(c["events"]), median(browse_untraced)),
                              "1/s"};
  m["simnet.reallocs"] = {per_session(c["reallocs"]), "count"};
  m["simnet.flows_per_realloc"] = {ratio(c["flows"], c["reallocs"]), "count"};
  m["simnet.wan_util"] = {ratio(c["trunk_bytes_max"], c["trunk_capacity"]), "ratio"};
  m["streaming.hit_ratio"] = {ratio(c["agent.hits"], c["agent.requests"]), "ratio"};
  m["streaming.lan_share"] = {ratio(c["lan"], c["accesses"]), "ratio"};
  m["streaming.wan_share"] = {ratio(c["wan"], c["accesses"]), "ratio"};
  m["streaming.shed_frac"] = {ratio(c["agent.demand_shed"], c["agent.requests"]), "ratio"};
  m["streaming.shed_wait_ms"] = {ratio(c["shed_wait_ns"], c["shed_waits"]) / 1e6, "ms"};
  const Tail fetch_tail = tail_of(fetch_self);
  m["streaming.fetch_self_ms_p50"] = {percentile(fetch_self, 0.5), "ms"};
  m["streaming.fetch_self_ms_tail"] = {fetch_tail.value, "ms"};
  m["streaming.decompress_ms_p50"] = {percentile(decompress, 0.5), "ms"};
  m["streaming.dvs_query_ms_p50"] = {percentile(dvs_query, 0.5), "ms"};
  m["streaming.dvs_shard_waits"] = {per_session(c["dvs.shard.waits"]), "count"};
  m["streaming.staged"] = {per_session(c["agent.staged"]), "count"};
  m["streaming.stage_wan_bytes"] = {per_session(c["agent.stage_wan_bytes"]), "B"};
  m["streaming.site_hit_ratio"] = {ratio(c["site.hits"], c["site.lookups"]), "ratio"};
  m["streaming.restage_leaders_per_key"] = {
      ratio(c["site.restage_leaders"], c["site.restage_keys"]), "ratio"};
  m["streaming.refetches"] = {per_session(c["agent.refetches"]), "count"};
  m["policy.prefetch_useful_ratio"] = {ratio(c["prefetch.useful"], c["agent.prefetches"]),
                                       "ratio"};
  m["policy.prefetch_bytes_per_access"] = {ratio(c["prefetch.bytes"], c["accesses"]), "B"};
  const Tail download_tail = tail_of(demand_download);
  m["lors.download_ms_p50"] = {percentile(demand_download, 0.5), "ms"};
  m["lors.download_ms_tail"] = {download_tail.value, "ms"};
  m["lors.stage_ms_p50"] = {percentile(stage, 0.5), "ms"};
  m["lors.retries"] = {per_session(c["lors.retries"]), "count"};
  m["lors.failovers"] = {per_session(c["lors.failovers"]), "count"};
  m["lors.corruption_detected"] = {per_session(c["lors.corruption_detected"]), "count"};
  m["fault.injected"] = {per_session(fault_total), "count"};
  m["obs.spans"] = {per_session(c["spans"]), "count"};
  m["obs.trace_overhead_frac"] = {median(browse_traced) / median(browse_untraced) - 1.0,
                                  "ratio"};

  Json layers;
  layers.str("workload", w.name);
  layers.raw("env", env_json(env));
  layers.raw("frame_tail", tail_json(frame_tail));
  layers.raw("fetch_self_tail", tail_json(fetch_tail));
  layers.raw("download_tail", tail_json(download_tail));
  layers.num("slowest_access_ms", slowest_ms);
  layers.str("tail_trace", w.name + ".tail_trace.json");
  layers.raw("metrics", metrics_json(m));
  {
    const std::string path = out_dir + "/" + w.name + ".layers.json";
    std::ofstream os(path);
    check(static_cast<bool>(os), "cannot write " + path);
    os << layers.done() << "\n";
  }

  std::size_t attempted = 0, failed = 0;
  for (const Session& s : traced) {
    attempted += s.attempted;
    failed += s.failed;
  }
  Json j;
  j.str("workload", w.name);
  j.raw("env", env_json(env));
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.num("sessions", static_cast<double>(w.sessions));
  j.num("iterations", static_cast<double>(iterations));
  j.raw("frame_tail", tail_json(frame_tail));
  j.raw("fetch_self_tail", tail_json(fetch_tail));
  j.raw("download_tail", tail_json(download_tail));
  j.str("tail_trace", trace_path);
  j.raw("metrics", metrics_json(m));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  Env env;
  env.commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::stoull(value);
    else if (key == "--seconds") seconds = std::stod(value);
    else if (key == "--trace") trace = std::stoi(value);
    else if (key == "--out") out_dir = value;
    else if (key == "--commit") env.commit = value;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  env.seed = seed;
  // Fault workloads log every injected failure; keep stderr to real errors.
  Log::set_level(LogLevel::kError);

  for (const Workload& w : workloads()) {
    if (w.name != workload) continue;
    try {
      return trace != 0 ? run_traced(w, seed, seconds, env, out_dir)
                        : run_untraced(w, seed, seconds, env);
    } catch (const CheckFailure& e) {
      std::fprintf(stderr, "CHECK FAILED (%s, seed %llu): %s\n", w.name.c_str(),
                   static_cast<unsigned long long>(seed), e.what());
      return 3;
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
