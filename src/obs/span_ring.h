// SpanRing: bounded retention buffer of the most recently *completed* trace
// spans, feeding the /tracez exposition endpoint. The thread-local span
// buffers in trace.h are drain-once (CollectSpans moves events out for a
// report at end of run); an operator hitting /tracez mid-run instead wants
// "the last few thousand spans, right now, without disturbing collection".
//
// The ring is lock-sharded: writers pick a shard by their dense thread id,
// so concurrent SpanEnd calls on different threads almost never contend on
// one mutex, and each shard overwrites its own oldest entry on wrap-around
// (evictions are counted in obs.spans_evicted — retention working as
// designed, distinct from obs.spans_dropped which counts spans lost
// outright). Readers lock shards one at a time and merge by end time, so a
// scrape never stalls recording for longer than one shard copy.
//
// A ring is fed two ways. A TailSampler promotes the spans of bad requests
// into the ring it was built with (obs::Telemetry wires its own ring).
// Separately, InstallGlobal() names the one process-wide feed for spans
// recorded while tracing is enabled outside any sampled request (pipeline
// phases, pumps); it is the only process-wide observability slot. A
// process that serves /tracez typically installs its telemetry's ring
// there so both kinds of span show up. Span names are string literals (the
// SpanEvent contract), so retained events stay valid indefinitely.

#ifndef OCT_OBS_SPAN_RING_H_
#define OCT_OBS_SPAN_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.h"

namespace oct {
namespace obs {

class SpanRing {
 public:
  /// Total retained-span capacity, split evenly over the shards (rounded up
  /// so capacity per shard is at least 1).
  explicit SpanRing(size_t capacity = 4096);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Appends a completed span, overwriting the shard's oldest entry when
  /// full. Lock-sharded: concurrent writers on different threads take
  /// different mutexes.
  void Add(const SpanEvent& event);

  /// The most recently completed spans (newest first), at most `max_spans`.
  /// Merges every shard under its lock; safe against concurrent Add.
  std::vector<SpanEvent> Latest(size_t max_spans) const;

  /// Spans ever Add()ed / overwritten by wrap-around.
  uint64_t total_added() const {
    return total_added_.load(std::memory_order_relaxed);
  }
  uint64_t total_evicted() const {
    return total_evicted_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return num_shards_ * per_shard_; }

  /// Installs `ring` (may be nullptr to uninstall) as the sink SpanEnd
  /// feeds with tracing-enabled spans that no sampled request owns. The
  /// ring must outlive its installation; the caller owns it. Readers
  /// (/tracez) never consult this slot — they read the telemetry's ring.
  static void InstallGlobal(SpanRing* ring);
  static SpanRing* Global();

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<SpanEvent> events;  // Ring storage, size <= per_shard.
    size_t next = 0;                // Overwrite cursor once full.
  };

  static constexpr size_t kShards = 8;

  const size_t num_shards_;
  const size_t per_shard_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> total_added_{0};
  std::atomic<uint64_t> total_evicted_{0};
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_SPAN_RING_H_
