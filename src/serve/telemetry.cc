#include "serve/telemetry.h"

#include <vector>

namespace oct {
namespace serve {

obs::Telemetry MakeTelemetry(const TelemetryOptions& options) {
  obs::TailSamplerOptions sampling;
  sampling.slow_threshold_us = options.slow_threshold_us;

  obs::SloObjectiveSpec latency;
  latency.name = kLatencyObjective;
  latency.description =
      "Routes finishing within " +
      std::to_string(static_cast<long long>(options.slow_threshold_us)) +
      "us";
  latency.target = options.latency_slo_target;
  latency.latency_threshold_us = options.slow_threshold_us;
  latency.burn_alert_threshold = options.slo_burn_alert_threshold;

  obs::SloObjectiveSpec availability;
  availability.name = kAvailabilityObjective;
  availability.description = "Requests neither shed nor errored";
  availability.target = options.availability_slo_target;
  availability.burn_alert_threshold = options.slo_burn_alert_threshold;

  return obs::Telemetry(sampling, options.slow_log_capacity,
                        options.pump_stall_seconds, {latency, availability});
}

}  // namespace serve
}  // namespace oct
