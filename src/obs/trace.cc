#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/metrics.h"
#include "obs/span_ring.h"
#include "obs/tail_sampler.h"

namespace oct {
namespace obs {

namespace {

/// Cap per thread so a forgotten enabled flag cannot grow without bound;
/// drops are counted in obs.spans_dropped rather than silently discarded.
constexpr size_t kMaxEventsPerThread = 1 << 20;

/// Cap on the exited-thread flush target: short-lived traced threads (pool
/// workers, one-shot helpers) all funnel their events here, so it needs the
/// same bound-and-count treatment as the live buffers.
constexpr size_t kMaxOrphanEvents = 1 << 20;

Counter* DroppedCounter() {
  static Counter* dropped = MetricsRegistry::Default()->GetCounter(
      "obs.spans_dropped",
      "Completed spans discarded because a trace buffer was full");
  return dropped;
}

struct ThreadBuffer {
  std::mutex mu;
  std::vector<SpanEvent> events;
  uint32_t tid = 0;
  uint32_t depth = 0;  // Touched only by the owning thread.
};

struct TraceState {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
  std::vector<SpanEvent> orphans;  // Events of threads that have exited.
  uint32_t next_tid = 1;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

// Leaked: thread-exit hooks and exit handlers may outlive ordered statics.
TraceState* State() {
  static TraceState* state = new TraceState();
  return state;
}

/// Registers the calling thread's buffer for its lifetime; flushes finished
/// events into the orphan list on thread exit so they survive collection.
/// Parenting survives the flush intact: events carry explicit
/// span_id/parent_id, so an orphaned child still points at its real parent
/// regardless of which buffer either ended up in.
struct ThreadBufferHandle {
  ThreadBuffer* buffer;

  ThreadBufferHandle() : buffer(new ThreadBuffer()) {
    TraceState* state = State();
    std::lock_guard<std::mutex> lock(state->mu);
    buffer->tid = state->next_tid++;
    state->buffers.push_back(buffer);
  }

  ~ThreadBufferHandle() {
    TraceState* state = State();
    std::lock_guard<std::mutex> lock(state->mu);
    {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      const size_t room = state->orphans.size() < kMaxOrphanEvents
                              ? kMaxOrphanEvents - state->orphans.size()
                              : 0;
      const size_t take = std::min(room, buffer->events.size());
      state->orphans.insert(state->orphans.end(), buffer->events.begin(),
                            buffer->events.begin() + take);
      if (take < buffer->events.size()) {
        DroppedCounter()->Increment(buffer->events.size() - take);
      }
    }
    state->buffers.erase(
        std::remove(state->buffers.begin(), state->buffers.end(), buffer),
        state->buffers.end());
    delete buffer;
  }
};

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBufferHandle handle;
  return handle.buffer;
}

/// Routes one finished event to its sinks:
///   - sampled request context -> the pending buffer of the tail sampler
///     that opened the trace (the verdict at FinishTrace decides whether
///     it reaches that sampler's ring);
///   - `collect` (tracing was enabled when the span opened) -> the
///     process-wide feed ring (immediately — unsampled spans have no later
///     promotion step) + the collection buffers. Gating on the open-time
///     state keeps the contract that spans already open when the flag
///     flips still record on close.
void RouteEvent(const SpanEvent& event, bool collect) {
  TailSampler* sampler =
      event.trace_id != 0 ? internal::g_trace_context.sampler : nullptr;
  if (sampler != nullptr) sampler->Record(event);
  if (!collect) return;  // Sampled-only span; the verdict owns retention.
  // Pending spans reach a ring on promotion; adding them here too would
  // double-count the same span in /tracez.
  if (sampler == nullptr) {
    if (SpanRing* ring = SpanRing::Global()) ring->Add(event);
  }
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= kMaxEventsPerThread) {
    DroppedCounter()->Increment();
    return;
  }
  buffer->events.push_back(event);
}

}  // namespace

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

uint64_t SpanStart(uint64_t* span_id, uint64_t* parent_id) {
  ++LocalBuffer()->depth;
  TraceContext& ctx = g_trace_context;
  *parent_id = ctx.span_id;
  *span_id = NextSpanId();
  // The thread's parent-span register: children opened inside this scope
  // (on this thread, or on threads this context is copied to) attach here.
  ctx.span_id = *span_id;
  return TraceNowNanos();
}

void SpanEnd(const char* name, uint64_t start_ns, uint64_t span_id,
             uint64_t parent_id, bool collect) {
  ThreadBuffer* buffer = LocalBuffer();
  const uint64_t end_ns = TraceNowNanos();
  const uint32_t depth = --buffer->depth;
  TraceContext& ctx = g_trace_context;
  // Pop the parent register. ScopedSpan destruction is LIFO per thread and
  // TraceContextScope saves/restores wholesale, so this stays consistent.
  ctx.span_id = parent_id;
  SpanEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.depth = depth;
  event.thread_id = buffer->tid;
  event.trace_id = ctx.trace_id;
  event.span_id = span_id;
  event.parent_id = parent_id;
  RouteEvent(event, collect);
}

}  // namespace internal

void RecordLinkedSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint64_t parent_id) {
  ThreadBuffer* buffer = LocalBuffer();
  const TraceContext& ctx = internal::g_trace_context;
  const bool collect = TracingEnabled();
  if (!collect && !(ctx.sampler != nullptr && ctx.trace_id != 0)) return;
  SpanEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.depth = buffer->depth;
  event.thread_id = buffer->tid;
  event.trace_id = ctx.trace_id;
  event.span_id = internal::NextSpanId();
  event.parent_id = parent_id;
  RouteEvent(event, collect);
}

void SetTracingEnabled(bool enabled) {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - State()->epoch)
          .count());
}

std::vector<SpanEvent> CollectSpans() {
  TraceState* state = State();
  std::lock_guard<std::mutex> lock(state->mu);
  std::vector<SpanEvent> out = std::move(state->orphans);
  state->orphans.clear();
  for (ThreadBuffer* buffer : state->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;  // Parents before children.
            });
  return out;
}

void ClearSpans() {
  TraceState* state = State();
  std::lock_guard<std::mutex> lock(state->mu);
  state->orphans.clear();
  for (ThreadBuffer* buffer : state->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

}  // namespace obs
}  // namespace oct
