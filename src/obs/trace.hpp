// Span tracing on the virtual clock.
//
// Spans are intervals of simulated time (sim::Simulator nanoseconds), so a
// trace is as deterministic and replayable as the run that produced it: the
// same seed yields byte-identical trace files. Each span carries a parent id,
// letting one browsing demand be followed across every async hop —
// demand -> agent fetch -> DVS query -> LoRS download -> IBP flow ->
// decompress — the NetLogger-style "lifeline" that Bethel et al. used to find
// WAN visualization bottlenecks.
//
// Parent propagation is explicit where a hop crosses virtual time (span ids
// are threaded through callbacks and option structs: `sim_.after` erases any
// call-stack context), and ambient where a call is synchronous: a Tracer
// keeps a current-span register that the RAII Ambient guard sets and
// restores, so e.g. the DVS picks up the agent's fetch span without the
// fabric API knowing about tracing.
//
// The exporter writes Chrome trace_event JSON: open the file in
// chrome://tracing or https://ui.perfetto.dev. Tracing is off by default
// (begin() returns the null id and records nothing) because the global
// context lives for the whole process; session::run_scenario enables it on
// its per-run context.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace lon::obs {

/// Identifies a span within one Tracer. 0 is "no span" (null parent / tracing
/// disabled); real ids start at 1.
using SpanId = std::uint64_t;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;
  bool open = true;           ///< still running (end not called)
  bool instant = false;       ///< point event, not an interval
  /// Key/value annotations, rendered into the trace event's "args".
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Master switch. While disabled, begin()/instant() return 0 and record
  /// nothing; arg()/end() on the null id are no-ops, so call sites need no
  /// branches.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span at virtual time `now`. parent == 0 means "use the ambient
  /// current span" (which may itself be 0: a root span).
  SpanId begin(std::string name, SimTime now, SpanId parent = 0);

  /// Closes `span` at `now`. No-op for the null id or an already-closed span.
  void end(SpanId span, SimTime now);

  /// Records a point event (retry fired, fault injected, lease refreshed).
  SpanId instant(std::string name, SimTime now, SpanId parent = 0);

  /// Attaches an annotation; shows under the event's "args" in the viewer.
  void arg(SpanId span, std::string key, std::string value);
  void arg(SpanId span, std::string key, std::uint64_t value) {
    arg(span, std::move(key), std::to_string(value));
  }

  /// The ambient current span (0 when none) — the parent that begin() adopts
  /// by default. Set via the Ambient guard.
  [[nodiscard]] SpanId current() const { return current_; }

  /// RAII guard making `span` the tracer's ambient current span for the
  /// enclosing scope. Use across synchronous call boundaries only; it cannot
  /// survive a sim_.after hop.
  class Ambient {
   public:
    Ambient(Tracer& tracer, SpanId span)
        : tracer_(tracer), saved_(tracer.current_) {
      tracer_.current_ = span;
    }
    ~Ambient() { tracer_.current_ = saved_; }
    Ambient(const Ambient&) = delete;
    Ambient& operator=(const Ambient&) = delete;

   private:
    Tracer& tracer_;
    SpanId saved_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span* find(SpanId id) const {
    return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  }
  /// Root (parentless ancestor) of `id`'s parent chain; 0 for the null id.
  [[nodiscard]] SpanId root_of(SpanId id) const;

  /// Chrome trace_event JSON (the "JSON Array with metadata" flavour):
  /// complete ("X") events for spans, instant ("i") events for points,
  /// timestamps in microseconds of virtual time. pid is 1; tid is the span's
  /// root id, so each request chain gets its own lane in the viewer.
  void write_chrome_trace(std::ostream& os) const;
  [[nodiscard]] std::string chrome_trace() const;

  void clear() {
    spans_.clear();
    current_ = 0;
  }

 private:
  std::vector<Span> spans_;  // id == index + 1
  SpanId current_ = 0;
  bool enabled_ = false;
};

}  // namespace lon::obs
