// The serving stack's telemetry: what it measures, declared in one place.
//
// The router records two objectives into the telemetry's SloEngine, and
// ServingExposition checks three background pumps against its watchdog.
// Their names live here, next to the six knobs the telemetry is built
// from, so the recorder and the reader cannot drift apart.
//
//   serve::TelemetryOptions options;
//   options.slow_threshold_us = 2000;
//   obs::Telemetry telemetry = serve::MakeTelemetry(options);
//   router_options.telemetry = &telemetry;
//   expose_options.telemetry = &telemetry;

#ifndef OCT_SERVE_TELEMETRY_H_
#define OCT_SERVE_TELEMETRY_H_

#include <cstddef>
#include <string>

#include "obs/telemetry.h"

namespace oct {
namespace serve {

/// SLO objectives the router records every answered request into.
inline const std::string kLatencyObjective = "router.latency";
inline const std::string kAvailabilityObjective = "router.availability";

/// Pumps ServingExposition checks for stalls, by the object it holds.
inline const std::string kMaintainerPump = "delta.maintainer";
inline const std::string kReplicaShipperPump = "store.replica_shipper";
inline const std::string kSchedulerPump = "serve.scheduler";

struct TelemetryOptions {
  /// Tail-sampling promotion threshold: requests slower than this land in
  /// /slowz (+ /tracez), and the latency SLO counts them bad.
  double slow_threshold_us = 5000.0;
  /// Bad requests retained for /slowz.
  size_t slow_log_capacity = 256;
  /// "router.latency": this fraction of routes must finish within
  /// slow_threshold_us.
  double latency_slo_target = 0.99;
  /// "router.availability": this fraction of requests must be neither shed
  /// nor errored.
  double availability_slo_target = 0.999;
  /// Burn rate that must be exceeded in BOTH SLO windows to alert.
  double slo_burn_alert_threshold = 2.0;
  /// A pump (delta maintainer, replica shipper, rebuild scheduler) that
  /// has beaten at least once and then gone quiet this long is reported
  /// stalled on /sloz and degrades /healthz.
  double pump_stall_seconds = 30.0;
};

/// Builds a telemetry object with the two router objectives declared.
obs::Telemetry MakeTelemetry(const TelemetryOptions& options = {});

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_TELEMETRY_H_
