// ServingExposition: the serving stack's pre-wired obs::ExpositionServer.
// Where the raw server takes hooks, this binds them to the pieces an online
// category-tree process already has:
//
//   /healthz   200 only while the TreeStore has a live snapshot AND the
//              RebuildScheduler's circuit breaker is closed or half-open
//              (half-open means a trial rebuild is probing recovery — the
//              last good snapshot is still being served, so the process is
//              healthy for readers). 503 while nothing has ever published
//              or while the breaker is open.
//   /metrics,  render the process-wide default registry (ctcr.*, kernel.*,
//   /varz      cct.*, fault.*, obs.*) plus the ServeStats per-instance
//              registry (serve.*) as one merged view.
//   /statusz   adds an "app" object: dataset scale, active snapshot
//              version, the retain-K version history, breaker state, and
//              the last rebuild outcome.
//   /slowz,    the tail-sampled bad-request log, SLO burn rates + pump
//   /sloz,     heartbeats, and per-trace span trees — read from the
//   /tracez    obs::Telemetry passed in ExpositionOptions::telemetry.
//              /route requests start a trace at ingress on that
//              telemetry's sampler; slow, shed, degraded, or errored ones
//              are promoted into its slow log and span ring at completion.
//              Pump stalls are read from the heartbeats of the scheduler,
//              maintainer and replica set this instance holds.
//
// The telemetry is built by whoever assembles the process and handed to
// the router (RouterOptions::telemetry, where route SLOs are recorded) and
// to this class — the same object to both. Without one the endpoints
// render empty and /route requests are traced but not sampled.
//
//   obs::Telemetry telemetry = serve::MakeTelemetry();
//   serve::ExpositionOptions opts;
//   opts.enabled = true;                       // default off: opt-in port
//   opts.port = 9187;                          // 0 = pick a free port
//   opts.telemetry = &telemetry;
//   serve::ServingExposition exposition(&store, &scheduler, &stats, opts);
//   OCT_RETURN_NOT_OK(exposition.Start());
//   ... curl localhost:9187/metrics ...
//   exposition.Stop();

#ifndef OCT_SERVE_EXPOSITION_H_
#define OCT_SERVE_EXPOSITION_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/expose.h"
#include "obs/telemetry.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"

namespace oct {
namespace router {
class Router;
}  // namespace router
namespace delta {
class DeltaMaintainer;
}  // namespace delta
namespace store {
class VersionLog;
class ReplicaSet;
}  // namespace store

namespace serve {

/// ServeOptions-style knob block: the subset of obs::ExpositionOptions an
/// operator configures, plus the enable switch.
struct ExpositionOptions {
  /// Off by default — serving processes opt in to opening a port.
  bool enabled = false;
  /// 0 picks any free port (read back via ServingExposition::port()).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  /// The telemetry this exposition serves and samples /route requests
  /// into (nullable; must outlive the exposition). See serve/telemetry.h.
  obs::Telemetry* telemetry = nullptr;
};

class ServingExposition {
 public:
  /// `store` must be non-null; `scheduler` and `stats` may be null (health
  /// then checks only snapshot availability, and /metrics renders only the
  /// default registry). `router` (nullable) mounts the /route endpoint,
  /// merges the router.* registry into /metrics, and folds router health
  /// into /healthz. `maintainer` (nullable) merges the delta.* registry
  /// into /metrics and adds a "delta" object to /statusz. All referenced
  /// objects must outlive this instance. The scheduler, the maintainer and
  /// the replica set (AttachDurability) are also the pumps whose
  /// heartbeats /sloz and /healthz check.
  ServingExposition(const TreeStore* store, const RebuildScheduler* scheduler,
                    const ServeStats* stats, ExpositionOptions options = {},
                    router::Router* router = nullptr,
                    const delta::DeltaMaintainer* maintainer = nullptr);
  ~ServingExposition();

  ServingExposition(const ServingExposition&) = delete;
  ServingExposition& operator=(const ServingExposition&) = delete;

  /// Starts the HTTP server. Returns OK without opening a port when
  /// options.enabled is false, so call sites can Start() unconditionally.
  Status Start();
  void Stop();

  bool running() const;
  /// Bound port while running (resolves port 0); 0 otherwise.
  int port() const;

  /// The /healthz answer (also usable without the HTTP server running).
  obs::HealthReport Health() const;

  /// The "app" object /statusz embeds, as a JSON string.
  std::string StatusJson() const;

  /// The underlying server (for tests that drive HandleRequest directly).
  obs::ExpositionServer* server() { return server_.get(); }

  /// Full HTTP response of the /route endpoint for an already-parsed
  /// request. Exposed so tests can drive routing through the HTTP layer
  /// without sockets.
  std::string HandleRoute(const obs::HttpRequest& request) const;

  /// Attaches the durability layer: mounts meaning into the always-present
  /// /store/record endpoint (replication transport — serves framed version-
  /// log records; 503 until attached) and adds a "durability" object to
  /// /statusz. Either pointer may be null. Call before Start(): the
  /// pointers are read from handler threads without synchronization.
  void AttachDurability(const store::VersionLog* log,
                        const store::ReplicaSet* replicas);

  /// Full HTTP response of /store/record?version=N (latest when omitted).
  std::string HandleStoreRecord(const obs::HttpRequest& request) const;

 private:
  /// Stall status of every pump this instance holds (empty without
  /// telemetry).
  std::vector<obs::PumpStatus> Pumps() const;

  const TreeStore* const store_;
  const RebuildScheduler* const scheduler_;
  router::Router* const router_;
  const delta::DeltaMaintainer* const maintainer_;
  const store::VersionLog* version_log_ = nullptr;
  const store::ReplicaSet* replica_set_ = nullptr;
  const ExpositionOptions options_;

  std::unique_ptr<obs::ExpositionServer> server_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_EXPOSITION_H_
