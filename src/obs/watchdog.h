// Watchdog: stalled-pump detection via heartbeat ages.
//
// The serving stack runs several background pumps — the delta maintainer,
// the replica shipper, the rebuild scheduler. When one wedges (deadlock,
// unbounded retry, lost wakeup) the first externally visible symptom is
// often the circuit breaker tripping minutes later, long after the root
// cause. The watchdog makes the wedge itself observable: each pump owns a
// Heartbeat it beats once per iteration, and the watchdog flags any pump
// whose last beat is older than the stall threshold — surfaced on /sloz
// and folded into /healthz degraded state before the breaker trips.
//
//   // pump side: a member, beaten at the end of each iteration
//   obs::Heartbeat heartbeat_;
//   heartbeat_.Beat();
//   // checker side: whoever holds the pump reads its heartbeat
//   obs::Watchdog dog(/*stall_threshold_seconds=*/30);
//   obs::PumpStatus s = dog.Check("delta.maintainer", maintainer.heartbeat());
//
// A pump that has never beaten is "idle", not stalled — pumps may be
// legitimately disabled — so stall needs at least one beat on record.

#ifndef OCT_OBS_WATCHDOG_H_
#define OCT_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace oct {
namespace obs {

/// One pump's liveness record. Beat() is two atomic ops, cheap enough for
/// every pump iteration; any thread may read it concurrently.
class Heartbeat {
 public:
  void Beat();
  uint64_t beats() const { return beats_.load(std::memory_order_acquire); }
  /// TraceNowNanos() of the most recent beat (0 before the first).
  uint64_t last_beat_ns() const {
    return last_beat_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> beats_{0};
  std::atomic<uint64_t> last_beat_ns_{0};
};

struct PumpStatus {
  std::string name;
  uint64_t beats = 0;
  double stall_threshold_seconds = 0.0;
  /// Seconds since the last beat; 0 when the pump has never beaten.
  double age_seconds = 0.0;
  bool stalled = false;
};

class Watchdog {
 public:
  explicit Watchdog(double stall_threshold_seconds = 30.0)
      : stall_threshold_seconds_(stall_threshold_seconds) {}

  /// Evaluates `heartbeat` against the current clock: stalled when it has
  /// beaten at least once and then gone quiet past the threshold.
  PumpStatus Check(const std::string& name, const Heartbeat& heartbeat) const;

  double stall_threshold_seconds() const { return stall_threshold_seconds_; }

 private:
  const double stall_threshold_seconds_;
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_WATCHDOG_H_
