#include "obs/watchdog.h"

#include "obs/trace.h"

namespace oct {
namespace obs {

void Heartbeat::Beat() {
  last_beat_ns_.store(TraceNowNanos(), std::memory_order_relaxed);
  // Release pairs with the acquire in beats(): a checker that sees the
  // count move also sees the timestamp written before it.
  beats_.fetch_add(1, std::memory_order_release);
}

PumpStatus Watchdog::Check(const std::string& name,
                           const Heartbeat& heartbeat) const {
  PumpStatus status;
  status.name = name;
  status.beats = heartbeat.beats();
  status.stall_threshold_seconds = stall_threshold_seconds_;
  if (status.beats > 0) {
    const uint64_t now_ns = TraceNowNanos();
    const uint64_t last = heartbeat.last_beat_ns();
    status.age_seconds =
        now_ns > last ? static_cast<double>(now_ns - last) * 1e-9 : 0.0;
    status.stalled = status.age_seconds > stall_threshold_seconds_;
  }
  return status;
}

}  // namespace obs
}  // namespace oct
