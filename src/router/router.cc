#include "router/router.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "fault/failpoint.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/telemetry.h"
#include "util/logging.h"

namespace oct {
namespace router {

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// A result is shareable (cacheable / dedup-fan-out-able) when it is a
/// clean, complete answer — errors, sheds, and best-so-far rankings are
/// request-specific outcomes and recompute.
bool Shareable(const RouteResult& result) {
  return result.status.ok() && !result.degraded && !result.shed;
}

/// Feeds the telemetry's SLO engine: route latency and non-shed
/// availability, the two objectives the serving stack declares.
void RecordSlo(obs::SloEngine* slo, const RouteResult& result) {
  slo->RecordLatency(serve::kLatencyObjective, result.total_seconds * 1e6);
  const bool errored = !result.status.ok() && !result.shed && !result.degraded;
  slo->Record(serve::kAvailabilityObjective, !result.shed && !errored);
}

}  // namespace

Router::Router(const serve::TreeStore* store, const data::SearchEngine* engine,
               RouterOptions options)
    : store_(store), engine_(engine), options_(std::move(options)) {
  OCT_CHECK(store_ != nullptr);
  OCT_CHECK(engine_ != nullptr);
  OCT_CHECK(options_.num_workers > 0);
  OCT_CHECK(options_.max_queue > 0);
  OCT_CHECK(options_.max_batch > 0);
}

Router::~Router() { Stop(); }

void Router::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Router::Stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& t : workers) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
  stopping_ = false;
}

bool Router::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

size_t Router::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::shared_ptr<const RouteIndex> Router::CurrentIndex() const {
  std::shared_ptr<const serve::TreeSnapshot> snapshot = store_->Current();
  if (snapshot == nullptr) return nullptr;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    if (index_cache_ != nullptr &&
        index_cache_->version() == snapshot->version()) {
      return index_cache_;
    }
  }
  // Build outside the lock: concurrent workers may both build on a version
  // flip (rare — once per publish), but neither blocks routing meanwhile.
  std::shared_ptr<const RouteIndex> built =
      RouteIndex::Build(std::move(snapshot), options_.index_options);
  std::lock_guard<std::mutex> lock(index_mu_);
  if (index_cache_ == nullptr || built->version() >= index_cache_->version()) {
    index_cache_ = built;
    stats_.SetIndexVersion(static_cast<int64_t>(built->version()));
  }
  return index_cache_;
}

uint64_t Router::WorkKeyFor(const RouteRequest& request) const {
  const size_t top_k = request.top_k != 0 ? request.top_k : options_.top_k;
  const double min_jaccard =
      request.min_jaccard >= 0.0 ? request.min_jaccard : options_.min_jaccard;
  uint64_t jaccard_bits = 0;
  static_assert(sizeof(jaccard_bits) == sizeof(min_jaccard), "");
  std::memcpy(&jaccard_bits, &min_jaccard, sizeof(jaccard_bits));
  uint64_t h = 0xcbf29ce484222325ull;
  h = MixHash(h, request.query.Key());
  h = MixHash(h, top_k);
  h = MixHash(h, jaccard_bits);
  h = MixHash(h, request.max_score_nodes);
  return h;
}

bool Router::CacheLookup(uint64_t key, serve::TreeVersion version,
                         RouteResult* result) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (version != result_cache_version_) {
    // First request against a freshly published tree: the old version's
    // rankings are invalid, drop them all.
    result_cache_.clear();
    result_cache_map_.clear();
    result_cache_version_ = version;
    stats_.SetCacheSize(0);
    return false;
  }
  auto it = result_cache_map_.find(key);
  if (it == result_cache_map_.end()) return false;
  result_cache_.splice(result_cache_.begin(), result_cache_, it->second);
  *result = result_cache_.front().result;
  return true;
}

void Router::CacheInsert(uint64_t key, serve::TreeVersion version,
                         const RouteResult& result) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (version != result_cache_version_) {
    result_cache_.clear();
    result_cache_map_.clear();
    result_cache_version_ = version;
  }
  auto it = result_cache_map_.find(key);
  if (it != result_cache_map_.end()) {
    result_cache_.splice(result_cache_.begin(), result_cache_, it->second);
    result_cache_.front().result = result;
  } else {
    result_cache_.push_front({key, result});
    result_cache_map_[key] = result_cache_.begin();
    while (result_cache_.size() > options_.cache_capacity) {
      result_cache_map_.erase(result_cache_.back().key);
      result_cache_.pop_back();
    }
  }
  stats_.SetCacheSize(static_cast<int64_t>(result_cache_.size()));
}

RouteResult Router::ProcessCached(const RouteIndex& index,
                                  const RouteRequest& request,
                                  const fault::CancelToken& cancel) const {
  if (options_.cache_capacity == 0) {
    return ProcessOne(index, request, cancel);
  }
  const uint64_t key = WorkKeyFor(request);
  RouteResult cached;
  if (CacheLookup(key, index.version(), &cached)) {
    stats_.RecordCacheHit();
    return cached;
  }
  stats_.RecordCacheMiss();
  RouteResult result = ProcessOne(index, request, cancel);
  if (Shareable(result)) CacheInsert(key, index.version(), result);
  return result;
}

Status Router::Submit(RouteRequest request,
                      std::function<void(RouteResult)> done) {
  OCT_CHECK(done != nullptr);
  Status injected = OCT_FAILPOINT("router.enqueue");
  if (!injected.ok()) {
    stats_.RecordShedQueueFull();
    return Status::ResourceExhausted("router: admission rejected (injected): " +
                                     injected.message());
  }

  Pending pending;
  const double deadline = request.deadline_seconds > 0.0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  if (deadline > 0.0) {
    pending.cancel = fault::CancelToken::WithDeadline(deadline);
  }
  if (pending.cancel.Cancelled()) {
    stats_.RecordShedDeadline();
    return Status::DeadlineExceeded("router: deadline expired at admission");
  }
  pending.request = std::move(request);
  pending.done = std::move(done);

  // Carry the request's trace across the queue. A caller that installed a
  // context (the HTTP ingress) stays the trace owner; otherwise the router
  // mints one at admission so direct Submit()/Route() callers (benches,
  // tests) still get cross-thread span trees, and tail sampling when the
  // router has telemetry.
  pending.trace = obs::CurrentTraceContext();
  if (!pending.trace.valid()) {
    const uint64_t deadline_ns =
        deadline > 0.0
            ? obs::TraceNowNanos() + static_cast<uint64_t>(deadline * 1e9)
            : 0;
    obs::TailSampler* sampler = options_.telemetry != nullptr
                                    ? &options_.telemetry->sampler
                                    : nullptr;
    pending.trace = obs::StartRequestTrace(sampler, deadline_ns);
    pending.own_trace = true;
  }

  Status rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      rejected = Status::FailedPrecondition("router: not running");
    } else if (queue_.size() >= options_.max_queue) {
      stats_.RecordShedQueueFull();
      rejected = Status::ResourceExhausted("router: queue full");
    } else {
      pending.enqueue_elapsed = uptime_.ElapsedSeconds();
      queue_.push_back(std::move(pending));
      stats_.SetQueueDepth(static_cast<int64_t>(queue_.size()));
    }
  }
  if (!rejected.ok()) {
    if (pending.own_trace && pending.trace.sampler != nullptr) {
      // The trace never crosses the queue; close its pending entry with
      // the shed verdict so /slowz records the rejection.
      obs::TraceFinish fin;
      fin.shed = true;
      fin.query = pending.request.query.Text(engine_->catalog());
      obs::FinishRequestTrace(pending.trace, fin);
    }
    return rejected;
  }
  stats_.RecordAdmitted();
  cv_.notify_one();
  return Status::OK();
}

RouteResult Router::Route(RouteRequest request) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    RouteResult result;
    bool ready = false;
  };
  auto waiter = std::make_shared<Waiter>();
  Status admitted = Submit(std::move(request), [waiter](RouteResult r) {
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->result = std::move(r);
    waiter->ready = true;
    waiter->cv.notify_one();
  });
  if (!admitted.ok()) {
    RouteResult shed;
    shed.status = std::move(admitted);
    shed.shed = true;
    return shed;
  }
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->ready; });
  return std::move(waiter->result);
}

RouteResult Router::RouteSerial(const RouteRequest& request) const {
  Timer timer;
  fault::CancelToken cancel;
  const double deadline = request.deadline_seconds > 0.0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  if (deadline > 0.0) cancel = fault::CancelToken::WithDeadline(deadline);

  RouteResult result;
  std::shared_ptr<const RouteIndex> index = CurrentIndex();
  if (index == nullptr) {
    result.status = Status::FailedPrecondition("router: no published tree");
  } else {
    result = ProcessOne(*index, request, cancel);
  }
  result.total_seconds = timer.ElapsedSeconds();
  FinishResult(result);
  // The serial oracle stays out of the SLO ledger (it is a correctness
  // probe, not traffic) but still exemplar-links when a context is live.
  stats_.RecordRoute(result.total_seconds, result.trace_id);
  return result;
}

void Router::WorkerLoop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      const size_t take = std::min(queue_.size(), options_.max_batch);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      stats_.SetQueueDepth(static_cast<int64_t>(queue_.size()));
    }
    const double dequeue_elapsed = uptime_.ElapsedSeconds();
    stats_.RecordBatch(batch.size());

    // router.batch: delay stalls the worker here with the batch already
    // claimed (the queue fills behind it — the shed test), error fails the
    // whole batch (answers still delivered, as errors).
    Status batch_status = OCT_FAILPOINT("router.batch");

    // Pin ONE index — one snapshot — for the whole batch. Every answer in
    // this batch is computed against the same tree version even if the
    // store publishes mid-batch.
    std::shared_ptr<const RouteIndex> index =
        batch_status.ok() ? CurrentIndex() : nullptr;

    // Cross-request dedup: requests with the same work key (query identity
    // + every answer-shaping knob) resolve and score once per batch — the
    // first one computes (possibly through the result cache) and clean
    // answers fan out to the rest. Deterministic: ProcessOne is a pure
    // function of (index version, request), so the fan-out copy is exactly
    // what each follower would have computed.
    std::unordered_map<uint64_t, size_t> leader_of;
    std::vector<RouteResult> computed(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Pending& pending = batch[i];
      Timer timer;
      // Re-install the request's trace context on this worker thread:
      // spans below carry the request's trace id and parent under the
      // submitter's span, reassembling the cross-thread tree on /tracez.
      obs::TraceContextScope trace_scope(pending.trace);
      RouteResult result;
      result.trace_id = pending.trace.trace_id;
      result.queue_seconds = dequeue_elapsed - pending.enqueue_elapsed;
      stats_.RecordQueueWait(result.queue_seconds);
      if (!batch_status.ok()) {
        result.status = batch_status;
      } else if (pending.cancel.Cancelled()) {
        // Budget gone before scoring began: shed, don't compute.
        result.status =
            Status::DeadlineExceeded("router: deadline expired in queue");
        result.shed = true;
      } else if (index == nullptr) {
        result.status = Status::FailedPrecondition("router: no published tree");
      } else {
        const uint64_t key = WorkKeyFor(pending.request);
        const auto leader = leader_of.find(key);
        if (leader != leader_of.end() && Shareable(computed[leader->second])) {
          const uint64_t link_start = obs::TraceNowNanos();
          result = computed[leader->second];
          result.trace_id = pending.trace.trace_id;
          result.deduped = true;
          stats_.RecordDeduped();
          // The follower's trace did no scoring of its own; link a span
          // under the *leader's* scoring span so the follower's tree shows
          // where its answer came from (a cross-trace edge).
          obs::RecordLinkedSpan("router/dedup", link_start,
                                obs::TraceNowNanos(), result.route_span_id);
        } else {
          result = ProcessCached(*index, pending.request, pending.cancel);
          result.trace_id = pending.trace.trace_id;
          leader_of[key] = i;
        }
        computed[i] = result;
        result.queue_seconds = dequeue_elapsed - pending.enqueue_elapsed;
      }
      result.total_seconds =
          result.queue_seconds + timer.ElapsedSeconds();
      FinishResult(result);
      stats_.RecordRoute(result.total_seconds, result.trace_id);
      if (options_.telemetry != nullptr) {
        RecordSlo(&options_.telemetry->slo, result);
      }
      // Unsampled traces skip the finish record (and its query text)
      // entirely: there is no sampler to hand the verdict to.
      if (pending.own_trace && pending.trace.sampler != nullptr) {
        obs::TraceFinish fin;
        fin.total_us = result.total_seconds * 1e6;
        fin.queue_us = result.queue_seconds * 1e6;
        fin.resolve_us = result.resolve_seconds * 1e6;
        fin.score_us = result.score_seconds * 1e6;
        fin.shed = result.shed;
        fin.degraded = result.degraded;
        fin.errored =
            !result.status.ok() && !result.shed && !result.degraded;
        fin.deduped = result.deduped;
        fin.version = result.version;
        fin.query = pending.request.query.Text(engine_->catalog());
        obs::FinishRequestTrace(pending.trace, fin);
      }
      pending.done(std::move(result));
    }
  }
}

RouteResult Router::ProcessOne(const RouteIndex& index,
                               const RouteRequest& request,
                               const fault::CancelToken& cancel) const {
  OCT_NAMED_SPAN(route_span, "router/route");
  RouteResult result;
  result.version = index.version();
  result.trace_id = obs::CurrentTraceContext().trace_id;
  result.route_span_id = route_span.span_id();

  Status injected = OCT_FAILPOINT("router.resolve");
  if (!injected.ok()) {
    result.status = std::move(injected);
    return result;
  }
  Timer resolve_timer;
  Result<ItemSet> resolved = [&] {
    OCT_SPAN("router/resolve");
    return engine_->TryResultSet(request.query, options_.relevance_threshold);
  }();
  result.resolve_seconds = resolve_timer.ElapsedSeconds();
  if (!resolved.ok()) {
    result.status = resolved.status();
    return result;
  }
  result.result_set_size = resolved->size();

  injected = OCT_FAILPOINT("router.score");
  if (!injected.ok()) {
    result.status = std::move(injected);
    return result;
  }
  const size_t top_k = request.top_k != 0 ? request.top_k : options_.top_k;
  const double min_jaccard =
      request.min_jaccard >= 0.0 ? request.min_jaccard : options_.min_jaccard;
  Timer score_timer;
  {
    OCT_SPAN("router/score");
    std::vector<NodeScore> scores;
    result.score_stats =
        index.ScoreTopK(*resolved, top_k, min_jaccard, &cancel, &scores,
                        request.max_score_nodes);
    result.degraded = result.score_stats.degraded;
    result.status = result.degraded
                        ? Status::DeadlineExceeded(
                              "router: budget hit mid-descent; best-so-far")
                        : Status::OK();

    const CategoryTree& tree = index.snapshot().tree();
    result.ranked.reserve(scores.size());
    for (const NodeScore& score : scores) {
      RoutedCategory category;
      category.node = score.node;
      category.jaccard = score.jaccard;
      category.containment = score.containment;
      category.overlap = score.overlap;
      category.depth = score.depth;
      for (NodeId id : index.snapshot().PathTo(score.node)) {
        category.path.push_back(tree.node(id).label);
      }
      result.ranked.push_back(std::move(category));
    }
  }
  result.score_seconds = score_timer.ElapsedSeconds();
  return result;
}

void Router::FinishResult(const RouteResult& result) const {
  if (result.shed) {
    stats_.RecordShedDeadline();
    return;
  }
  if (result.degraded) stats_.RecordDegraded();
  if (result.status.ok() || result.degraded) {
    if (result.ranked.empty()) {
      stats_.RecordUnrouted();
    } else {
      stats_.RecordRouted();
    }
    return;
  }
  stats_.RecordError();
}

}  // namespace router
}  // namespace oct
