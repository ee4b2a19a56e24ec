// Telemetry: one request-observability stack, built once by whoever
// assembles the process and handed explicitly to each piece that records
// into it or serves it. It owns
//
//   span_ring  retained spans of promoted requests (/tracez)
//   slow_log   the promoted requests themselves (/slowz)
//   sampler    the TailSampler, wired to span_ring and slow_log
//   slo        the SloEngine the router records into (/sloz, /healthz)
//   watchdog   the stall threshold pump heartbeats are checked against
//
// Nothing here is process-wide: two serving stacks in one process build two
// Telemetry objects and keep separate ledgers. A router's request contexts
// carry a pointer to the sampler that opened them, so the Telemetry must
// outlive every router and exposition it was handed to.
//
//   obs::Telemetry telemetry = serve::MakeTelemetry(options);
//   router_options.telemetry = &telemetry;     // records
//   expose_options.telemetry = &telemetry;     // serves
//
// serve::MakeTelemetry declares the serving stack's objectives; tests build
// one directly.

#ifndef OCT_OBS_TELEMETRY_H_
#define OCT_OBS_TELEMETRY_H_

#include <cstddef>
#include <vector>

#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/span_ring.h"
#include "obs/tail_sampler.h"
#include "obs/watchdog.h"

namespace oct {
namespace obs {

struct Telemetry {
  explicit Telemetry(const TailSamplerOptions& sampling = {},
                     size_t slow_log_capacity = 256,
                     double pump_stall_seconds = 30.0,
                     const std::vector<SloObjectiveSpec>& objectives = {})
      : slow_log(slow_log_capacity),
        sampler(sampling, span_ring, slow_log),
        watchdog(pump_stall_seconds) {
    for (const SloObjectiveSpec& spec : objectives) slo.AddObjective(spec);
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // Declaration order is construction order: the sampler's sinks first.
  SpanRing span_ring;
  SlowLog slow_log;
  TailSampler sampler;
  SloEngine slo;
  Watchdog watchdog;
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_TELEMETRY_H_
