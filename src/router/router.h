// oct::router — online query→category routing against the live tree.
//
// The Router is the serving front end ROADMAP item 4 asks for: a user query
// comes in, its result set is resolved through the data::SearchEngine
// substrate, and the result set is scored against every candidate category
// of the *current* serve::TreeSnapshot via a per-snapshot RouteIndex
// (kernel::ItemSetIndex bitmaps + prefix-filter pruned root→leaf descent).
// The answer is a ranked list of category paths.
//
// Serving shape (the obs/expose acceptor idiom, applied to routing):
//
//   Submit()/Route() ──> bounded queue ──> worker pool, draining batches
//        │                                      │
//        │  admission control:                  │  pins ONE RouteIndex
//        │  - queue full      -> shed           │  (and thus one snapshot)
//        │  - deadline passed -> shed           │  per *batch*, so a batch's
//        └─ both counted in router.shed_*       └─ answers are mutually
//                                                  consistent under
//                                                  concurrent publishes
//
// Deadlines are anytime: a request whose budget expires mid-descent gets a
// valid best-so-far ranking with Status kDeadlineExceeded and the degraded
// flag — the library-wide fault::CancelToken convention. A request whose
// budget is already gone when a worker picks it up is shed without scoring.
//
// Failpoints: router.enqueue (admission), router.batch (worker drain),
// router.resolve (result-set resolution), router.score (descent).

#ifndef OCT_ROUTER_ROUTER_H_
#define OCT_ROUTER_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/search_engine.h"
#include "fault/cancel.h"
#include "kernel/item_set_index.h"
#include "obs/trace_context.h"
#include "router/route_index.h"
#include "router/router_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"
#include "util/timer.h"

namespace oct {
namespace obs {
struct Telemetry;
}  // namespace obs

namespace router {

struct RouterOptions {
  /// Worker threads draining the queue.
  size_t num_workers = 4;
  /// Admission bound: Submit() sheds (kResourceExhausted) when this many
  /// requests are already waiting.
  size_t max_queue = 1024;
  /// Most requests one worker drains per batch. Larger batches amortize the
  /// snapshot pin; smaller ones bound per-batch staleness.
  size_t max_batch = 32;
  /// Default ranking size when a request does not override it.
  size_t top_k = 5;
  /// Default Jaccard floor: categories scoring below it are not answers.
  double min_jaccard = 0.05;
  /// Relevance threshold for result-set resolution (the paper's 0.8).
  double relevance_threshold = 0.8;
  /// Per-request wall-clock budget applied when a request carries none
  /// (0 = unlimited).
  double default_deadline_seconds = 0.0;
  /// Head-query result cache: LRU capacity in entries (0 disables). The
  /// cache is tagged with the pinned RouteIndex version and cleared on the
  /// first request after a publish, so it can never serve a stale tree's
  /// ranking. Only clean answers (OK, not degraded) are cached; RouteSerial
  /// bypasses it so the oracle stays pure.
  size_t cache_capacity = 0;
  /// Passed through to RouteIndex::Build at snapshot install.
  kernel::ItemSetIndexOptions index_options;
  /// Request telemetry (nullable; must outlive the router). With one, every
  /// answered request feeds its router.latency / router.availability
  /// objectives, and traces the router opens itself are tail-sampled into
  /// it. Without one the router still mints trace ids but skips every
  /// sampling and SLO step.
  obs::Telemetry* telemetry = nullptr;
};

struct RouteRequest {
  data::Query query;
  /// 0 → RouterOptions::top_k.
  size_t top_k = 0;
  /// < 0 → RouterOptions::min_jaccard.
  double min_jaccard = -1.0;
  /// Wall-clock budget from admission (0 → RouterOptions default). The
  /// request degrades to best-so-far past it, or is shed if it expires
  /// before scoring begins.
  double deadline_seconds = 0.0;
  /// Deterministic descent budget in visited nodes (0 = unlimited) — the
  /// testable twin of the wall-clock deadline.
  size_t max_score_nodes = 0;
};

/// One ranked answer: a category and its root→node breadcrumb.
struct RoutedCategory {
  NodeId node = kInvalidNode;
  /// Labels root→node ("Fashion" > "Shoes" > "Sneakers").
  std::vector<std::string> path;
  double jaccard = 0.0;
  double containment = 0.0;
  uint32_t overlap = 0;
  uint32_t depth = 0;
};

struct RouteResult {
  /// OK, kResourceExhausted (shed: queue full), kDeadlineExceeded (shed or
  /// degraded), kInvalidArgument (malformed query), kFailedPrecondition
  /// (no published tree), or an injected/real internal error.
  Status status;
  /// Version of the snapshot the ranking was computed against (0 if the
  /// request never reached scoring).
  serve::TreeVersion version = 0;
  /// Ranked categories, best first. Valid (possibly truncated) even when
  /// status is kDeadlineExceeded with degraded set.
  std::vector<RoutedCategory> ranked;
  /// Result-set size of the query at the relevance threshold.
  size_t result_set_size = 0;
  /// Descent cut short; `ranked` is best-so-far.
  bool degraded = false;
  /// Rejected before scoring (queue full or deadline already gone).
  bool shed = false;
  /// Descent accounting (nodes visited / pruned).
  ScoreStats score_stats;
  double queue_seconds = 0.0;
  /// Result-set resolution / descent+rank time inside ProcessOne (both 0
  /// for cache hits, dedup copies, and requests that never scored).
  double resolve_seconds = 0.0;
  double score_seconds = 0.0;
  double total_seconds = 0.0;
  /// Answered by copying a same-work-key leader's result in this batch.
  bool deduped = false;
  /// Trace identity of the request (0 when tracing was never in play).
  uint64_t trace_id = 0;
  /// Span id of the "router/route" span that computed the ranking; dedup
  /// followers parent their link span under it.
  uint64_t route_span_id = 0;
};

class Router {
 public:
  /// `store` and `engine` must outlive the router. Workers start on
  /// Start(), not construction.
  Router(const serve::TreeStore* store, const data::SearchEngine* engine,
         RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawns the worker pool. Idempotent.
  void Start();

  /// Drains every queued request (late answers beat dropped answers for
  /// requests already admitted), then joins the workers. Idempotent.
  /// Submit() sheds while stopping.
  void Stop();

  bool running() const;

  /// Async entry point: admission control, then enqueue. On OK, `done` is
  /// invoked exactly once from a worker thread with the result. On a
  /// non-OK return (queue full, expired deadline, stopped router, injected
  /// admission failure) `done` is never invoked and the request was shed.
  Status Submit(RouteRequest request, std::function<void(RouteResult)> done);

  /// Blocking entry point: Submit + wait. Shed requests come back as a
  /// RouteResult with the rejection status and shed=true.
  RouteResult Route(RouteRequest request);

  /// Serial oracle: resolves and scores `request` inline on the calling
  /// thread — no queue, no workers, no batching — against the same pinned
  /// index the batched path uses. The batched path must produce an
  /// identical ranking; tests and the bench hold the router to that.
  RouteResult RouteSerial(const RouteRequest& request) const;

  /// The RouteIndex for the store's current snapshot, building and caching
  /// it when the store has published a newer version. Thread-safe; nullptr
  /// before the first publish.
  std::shared_ptr<const RouteIndex> CurrentIndex() const;

  size_t queue_depth() const;

  const RouterStats& stats() const { return stats_; }
  const RouterOptions& options() const { return options_; }
  const data::SearchEngine& engine() const { return *engine_; }

 private:
  struct Pending {
    RouteRequest request;
    fault::CancelToken cancel;
    std::function<void(RouteResult)> done;
    double enqueue_elapsed = 0.0;  // queue-entry time on the admit timer
    /// Trace context carried across the queue: the submitter's ambient
    /// context, or one the router minted at admission (own_trace). The
    /// worker re-installs it, so cross-thread spans share the request's
    /// trace id and parent correctly.
    obs::TraceContext trace;
    /// Router minted the context, so the router reports the tail verdict;
    /// contexts handed in by the caller are finished by the caller (it
    /// sees serialization time the router cannot).
    bool own_trace = false;
  };

  void WorkerLoop();
  /// Resolve + score one request against `index`; fills everything but the
  /// queue timing fields.
  RouteResult ProcessOne(const RouteIndex& index, const RouteRequest& request,
                         const fault::CancelToken& cancel) const;
  /// ProcessOne through the head-query result cache (batched path only).
  RouteResult ProcessCached(const RouteIndex& index,
                            const RouteRequest& request,
                            const fault::CancelToken& cancel) const;
  /// Work identity of a request: query key + every knob that changes the
  /// answer. Two requests with equal work keys get identical results
  /// against the same index version.
  uint64_t WorkKeyFor(const RouteRequest& request) const;
  bool CacheLookup(uint64_t key, serve::TreeVersion version,
                   RouteResult* result) const;
  void CacheInsert(uint64_t key, serve::TreeVersion version,
                   const RouteResult& result) const;
  /// Terminal accounting shared by every answer path.
  void FinishResult(const RouteResult& result) const;

  const serve::TreeStore* store_;
  const data::SearchEngine* engine_;
  const RouterOptions options_;
  mutable RouterStats stats_;

  /// Index cache: rebuilt lazily when the store publishes a new version.
  /// A plain mutex (not atomic<shared_ptr>) — contention is once per batch,
  /// and TSan models mutexes natively (see serve::detail::SnapshotCell).
  mutable std::mutex index_mu_;
  mutable std::shared_ptr<const RouteIndex> index_cache_;

  /// Head-query result cache: LRU over work keys, valid for exactly one
  /// index version (`result_cache_version_`); cleared on version flip.
  struct CachedRoute {
    uint64_t key = 0;
    RouteResult result;
  };
  mutable std::mutex cache_mu_;
  mutable std::list<CachedRoute> result_cache_;  // Front = most recent.
  mutable std::unordered_map<uint64_t, std::list<CachedRoute>::iterator>
      result_cache_map_;
  mutable serve::TreeVersion result_cache_version_ = 0;

  mutable std::mutex mu_;  // Guards queue_, workers_, run state.
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;
  Timer uptime_;  // Admission/queue timing base.
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTER_H_
