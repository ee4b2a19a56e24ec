#include "obs/tail_sampler.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace oct {
namespace obs {

namespace {

Counter* StartedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_started", "Request traces opened by the tail sampler");
  return c;
}
Counter* PromotedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_promoted",
      "Traces retained because they finished slow, shed, degraded, or "
      "errored");
  return c;
}
Counter* DiscardedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_discarded",
      "Traces dropped at completion because nothing went wrong");
  return c;
}
Counter* EvictedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_evicted",
      "Pending traces evicted before completion (shard bound hit)");
  return c;
}

}  // namespace

TailSampler::TailSampler(TailSamplerOptions options, SpanRing& ring,
                         SlowLog& slow_log)
    : options_(std::move(options)),
      ring_(ring),
      slow_log_(slow_log),
      shards_(kShards) {}

void TailSampler::StartTrace(uint64_t trace_id) {
  if (trace_id == 0) return;
  started_.fetch_add(1, std::memory_order_relaxed);
  StartedCounter()->Increment();
  Shard& shard = ShardFor(trace_id);
  uint64_t evicted_now = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.pending.try_emplace(trace_id);
    if (!inserted) return;  // Already open (double-start); keep existing.
    shard.fifo.push_back(trace_id);
    while (shard.pending.size() > options_.max_pending_per_shard &&
           !shard.fifo.empty()) {
      const uint64_t oldest = shard.fifo.front();
      shard.fifo.pop_front();
      if (shard.pending.erase(oldest) != 0) ++evicted_now;
    }
  }
  if (evicted_now != 0) {
    evicted_.fetch_add(evicted_now, std::memory_order_relaxed);
    EvictedCounter()->Increment(evicted_now);
  }
}

void TailSampler::Record(const SpanEvent& event) {
  if (event.trace_id == 0) return;
  Shard& shard = ShardFor(event.trace_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.pending.find(event.trace_id);
  if (it == shard.pending.end()) return;  // Evicted or never started.
  if (it->second.spans.size() >= options_.max_spans_per_trace) {
    ++it->second.dropped_spans;
    return;
  }
  it->second.spans.push_back(event);
}

bool TailSampler::FinishTrace(uint64_t trace_id, const TraceFinish& fin) {
  if (trace_id == 0) return false;
  PendingTrace trace;
  {
    Shard& shard = ShardFor(trace_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.pending.find(trace_id);
    if (it != shard.pending.end()) {
      trace = std::move(it->second);
      shard.pending.erase(it);
      // The fifo entry goes stale; eviction skips ids already erased.
    }
  }
  if (!WouldPromote(fin)) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    DiscardedCounter()->Increment();
    return false;
  }
  promoted_.fetch_add(1, std::memory_order_relaxed);
  PromotedCounter()->Increment();

  // Promote spans into the retention ring feeding /tracez. A shed request
  // may legitimately have no spans (rejected at admission); the slow-log
  // entry still records it.
  for (const SpanEvent& e : trace.spans) ring_.Add(e);

  SlowRequestEntry entry;
  entry.trace_id = trace_id;
  entry.query = fin.query;
  entry.version = fin.version;
  entry.total_us = fin.total_us;
  entry.queue_us = fin.queue_us;
  entry.resolve_us = fin.resolve_us;
  entry.score_us = fin.score_us;
  entry.serialize_us = fin.serialize_us;
  entry.deduped = fin.deduped;
  entry.shed = fin.shed;
  entry.degraded = fin.degraded;
  entry.errored = fin.errored;
  entry.end_ns = TraceNowNanos();
  // Worst condition labels the entry.
  if (fin.errored) {
    entry.reason = TailReason::kError;
  } else if (fin.shed) {
    entry.reason = TailReason::kShed;
  } else if (fin.degraded) {
    entry.reason = TailReason::kDegraded;
  } else {
    entry.reason = TailReason::kSlow;
  }
  slow_log_.Add(std::move(entry));
  return true;
}

TraceContext StartRequestTrace(TailSampler* sampler, uint64_t deadline_ns) {
  TraceContext ctx;
  ctx.trace_id = internal::NextTraceId();
  ctx.span_id = 0;
  ctx.deadline_ns = deadline_ns;
  ctx.sampler = sampler;
  if (sampler != nullptr) sampler->StartTrace(ctx.trace_id);
  return ctx;
}

bool FinishRequestTrace(const TraceContext& ctx, const TraceFinish& fin) {
  if (!ctx.valid() || ctx.sampler == nullptr) return false;
  return ctx.sampler->FinishTrace(ctx.trace_id, fin);
}

}  // namespace obs
}  // namespace oct
