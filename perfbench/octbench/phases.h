// The benchmark's workloads. Every workload times the same four kinds of
// work, each with a fixed, seeded operation count:
//
//   build    raw query log -> BuildOctInput -> ctcr::BuildCategoryTree ->
//            TreeStore::Publish, then cct::BuildCategoryTree on the same
//            input;
//   route    admission -> ranking, either a closed loop of Router::Route
//            clients or an open-loop reader that submits through
//            Router::Submit beside the churn;
//   churn    DeltaMaintainer::PumpOnce publishing through a TreeStore whose
//            WarmStart hook commits every version to a VersionLog;
//   recover  VersionLog::Open + WarmStart + first answered route on the
//            log the churn left behind.
//
// A run is a number of cycles of (build, route, churn) slices followed by
// the recoveries, so every metric samples the whole run rather than one
// stretch of it: host speed drifts over seconds. Slices never overlap,
// except that churn-B's reader runs beside its churn.
#ifndef OCTBENCH_PHASES_H_
#define OCTBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <string>

#include "octbench/stats.h"

namespace octbench {

struct WorkloadSpec {
  std::string name;
  /// Dataset B or D, at scale 0.08 (never read from the environment).
  char dataset = 'B';

  /// Cycles per run; each runs the slices below once.
  size_t cycles = 1;
  /// Build slice: rounds of (CTCR build -> publish, CCT builds).
  size_t builds_per_cycle = 1;
  size_t ccts_per_build = 1;

  /// Route slice. Closed loop: 2 clients, each waiting for its reply,
  /// send `routes_per_cycle` requests of a Zipf(1.05) mix over 600 logged
  /// queries. Open loop (`reader_rps` > 0): one reader sends a uniform mix
  /// at a fixed rate while the churn slice runs; each request is timed
  /// from its due time.
  size_t routes_per_cycle = 0;
  double reader_rps = 0.0;

  /// Churn slice: `pumps_per_cycle` PumpOnce calls of 4 tail ops each,
  /// one every `pump_period_ms` (0 = back to back).
  size_t pumps_per_cycle = 0;
  double pump_period_ms = 0.0;

  /// Replay the churn into a fresh DeltaBuilder and run VerifyEquivalence
  /// on the last published tree (a full rebuild plus a serial plain build:
  /// about a second on dataset B, tens of seconds on D).
  bool verify_delta = true;

  /// Recoveries from the final, fixed-length log.
  size_t recover_reps = 1;
};

/// The named workloads with operation counts sized for a run of `seconds`.
/// Returns false when `name` is unknown.
bool SpecFor(const std::string& name, double seconds, WorkloadSpec* spec);

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// Lines printed before the result: the thread shape and host speed,
  /// and in the untraced run the unscaled times.
  std::string report;
};

/// Runs one workload. `workdir` is an empty directory the run may write
/// its version log into. `trace` selects the per-layer ledger.
RunOutcome RunWorkload(const WorkloadSpec& spec, uint64_t seed, bool trace,
                       const std::string& workdir);

}  // namespace octbench

#endif  // OCTBENCH_PHASES_H_
