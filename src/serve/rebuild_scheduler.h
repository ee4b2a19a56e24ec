// RebuildScheduler: keeps the served tree fresh without ever stalling the
// read path. Search/navigation traffic drifts (new queries, trends — the
// paper's Section 5.4 "Kobe" effect) while production trees are regenerated
// only periodically (Section 5.1: every ~90 days). The scheduler accepts
// fresh preprocessed query-log batches, measures how well the *currently
// served* tree still scores under them, and when the score has drifted too
// far below the level the tree was published at, rebuilds a candidate on
// the shared ThreadPool in the background. Readers keep serving the old
// snapshot throughout; the candidate is published (one atomic swap in
// TreeStore) only if it actually beats the current tree — and optionally
// only if it is a conservative update (TreeDiff item-stability gate,
// Section 2.3).

#ifndef OCT_SERVE_REBUILD_SCHEDULER_H_
#define OCT_SERVE_REBUILD_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "core/input.h"
#include "core/similarity.h"
#include "data/datasets.h"
#include "eval/harness.h"
#include "fault/cancel.h"
#include "obs/watchdog.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace oct {
namespace serve {

/// Pluggable candidate-tree source. When RebuildPolicy::builder is set, the
/// scheduler asks it for the candidate instead of running the batch
/// eval::BuildTree — this is how oct::delta routes drift-triggered rebuilds
/// through the incremental path (which carries its own full-rebuild
/// fallback). The scheduler still owns scoring, the publish gates, retry /
/// breaker machinery, and the TreeStore publish itself.
class CandidateBuilder {
 public:
  struct Candidate {
    CategoryTree tree;
    /// Publish-note override (empty keeps the scheduler's default
    /// "rebuild:<algorithm>" note).
    std::string note;
  };

  virtual ~CandidateBuilder() = default;

  /// Builds a candidate tree for `batch`. `cancel` carries the rebuild
  /// deadline (may be null; implementations may ignore it). Called from the
  /// scheduler's single in-flight rebuild task — never concurrently. Any
  /// non-OK result fails the attempt (and feeds retry/breaker logic).
  virtual Result<Candidate> BuildCandidate(
      const OctInput& batch, const fault::CancelToken* cancel) = 0;
};

/// When and how the scheduler rebuilds.
struct RebuildPolicy {
  /// Algorithm for candidate trees. CTCR/CCT/IC-Q consume only the input;
  /// IC-S/ET additionally need the dataset's catalog / existing tree.
  eval::Algorithm algorithm = eval::Algorithm::kCtcr;
  /// Trigger: rebuild when the current tree's normalized score under a
  /// fresh batch falls more than this below the score it was published at.
  double drift_tolerance = 0.05;
  /// Publish gate: the candidate's normalized score must exceed the current
  /// tree's score under the same batch by at least this margin.
  double min_publish_gain = 0.0;
  /// Conservative-update gate: discard candidates whose TreeDiff item
  /// stability against the served tree is below this (0 disables the gate).
  double min_item_stability = 0.0;
  /// Candidate source override (not owned; must outlive the scheduler).
  /// Null = the default eval::BuildTree batch path.
  CandidateBuilder* builder = nullptr;

  // --- Resilience knobs ---

  /// Wall-clock budget per rebuild attempt, seconds (0 disables). The
  /// anytime build degrades gracefully: a best-so-far tree may still pass
  /// the gates and publish, with the outcome reporting kDeadlineExceeded.
  double rebuild_deadline_seconds = 0.0;
  /// Failed attempts (injected or structural errors — not gate discards,
  /// not deadline hits) are retried up to this many times.
  int max_retries = 2;
  /// First retry delay; doubled per retry up to `backoff_max_seconds`.
  double backoff_initial_seconds = 0.02;
  double backoff_max_seconds = 1.0;
  /// Each delay is scaled by a uniform factor in [1 - jitter, 1 + jitter]
  /// so synchronized failures don't retry in lockstep.
  double backoff_jitter = 0.2;
  /// Seed for the (deterministic) backoff jitter stream.
  uint64_t backoff_seed = 42;
  /// Circuit breaker: opens after this many consecutive failed rebuilds
  /// (0 disables). While open, drifted batches are rejected and readers
  /// keep the last good snapshot.
  int breaker_failure_threshold = 3;
  /// Open -> half-open after this cooldown; one trial rebuild is let
  /// through, closing the breaker on success and reopening it on failure.
  double breaker_cooldown_seconds = 0.5;
};

/// Circuit-breaker state (exported as the serve.breaker_state gauge).
enum class CircuitState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* CircuitStateName(CircuitState state);

/// What OfferBatch decided.
enum class BatchDecision {
  /// Current tree still scores within tolerance; no rebuild.
  kUpToDate,
  /// Drift detected; a background rebuild was enqueued.
  kScheduled,
  /// Drift detected but a rebuild is already in flight; batch dropped.
  /// (Legacy value — the scheduler now coalesces instead; see kCoalesced.)
  kAlreadyRebuilding,
  /// Nothing published yet; a bootstrap rebuild was enqueued.
  kBootstrap,
  /// Drift detected while a rebuild was in flight; the batch replaced the
  /// pending-latest slot and is re-offered when the rebuild finishes.
  kCoalesced,
  /// Circuit breaker open: rebuilds are failing repeatedly, so the batch
  /// was rejected and readers keep the last good snapshot.
  kCircuitOpen,
};

const char* BatchDecisionName(BatchDecision decision);

/// Result of one rebuild attempt (background or synchronous).
struct RebuildOutcome {
  bool published = false;
  /// Version the candidate was published as (0 when discarded).
  TreeVersion published_version = 0;
  /// Normalized score of the previously served tree under the batch.
  double current_score = 0.0;
  /// Normalized score of the candidate under the batch.
  double candidate_score = 0.0;
  /// TreeDiff item stability candidate-vs-served (1 when nothing served).
  double item_stability = 1.0;
  /// Wall-clock of the rebuild (build + score + gates), seconds.
  double seconds = 0.0;
  /// Human-readable publish/discard reason.
  std::string reason;
  /// OK; kDeadlineExceeded when the build budget expired (the best-so-far
  /// tree may still have published); or the error that failed the final
  /// attempt (injected failpoint or structural failure).
  Status status = Status::OK();
  /// Build attempts made (1 + retries taken).
  int attempts = 1;
};

class RebuildScheduler {
 public:
  /// `store` and `stats` must outlive the scheduler. `dataset` provides the
  /// catalog/existing-tree context some algorithms need (may point to an
  /// empty Dataset for CTCR/CCT/IC-Q). `pool` defaults to
  /// DefaultThreadPool(); rebuilds occupy one task slot on it.
  RebuildScheduler(TreeStore* store, ServeStats* stats,
                   const data::Dataset* dataset, Similarity sim,
                   RebuildPolicy policy = {}, ThreadPool* pool = nullptr);

  /// Blocks until any in-flight rebuild has finished.
  ~RebuildScheduler();

  RebuildScheduler(const RebuildScheduler&) = delete;
  RebuildScheduler& operator=(const RebuildScheduler&) = delete;

  /// Scores the served tree under `batch` (inline — scoring is cheap
  /// relative to a rebuild) and enqueues a background rebuild when the
  /// score has drifted. Returns immediately; readers are never blocked.
  /// While a rebuild is in flight, drifted batches coalesce into a
  /// pending-latest slot (latest wins) that is re-offered — with a fresh
  /// drift probe — when the rebuild finishes. While the circuit breaker is
  /// open, drifted batches are rejected instead.
  BatchDecision OfferBatch(OctInput batch);

  /// Synchronous rebuild + gated publish on the calling thread (bootstrap
  /// and tests). Runs even when no drift is detected, and bypasses the
  /// circuit breaker (it is the manual recovery path); its result still
  /// feeds the breaker state.
  RebuildOutcome RebuildNow(const OctInput& batch);

  /// True while a background rebuild is executing or queued.
  bool rebuild_in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Blocks until no rebuild is in flight (bench/test synchronization).
  void WaitForRebuild();

  /// Outcome of the most recently finished rebuild.
  RebuildOutcome last_outcome() const;

  /// Normalized score the served tree achieved when it was last published
  /// (the drift baseline); 0 before any publish through this scheduler.
  double published_score() const;

  /// Current circuit-breaker state / consecutive-failure count.
  CircuitState circuit_state() const;
  int consecutive_failures() const;

  const RebuildPolicy& policy() const { return policy_; }

  /// Beaten once per finished rebuild, success or failure.
  const obs::Heartbeat& heartbeat() const { return heartbeat_; }

 private:
  /// Builds, gates, and maybe publishes a candidate for `batch`, retrying
  /// failed attempts with backoff; `current_score` is the served tree's
  /// score under that batch.
  RebuildOutcome RunRebuild(const OctInput& batch, double current_score);
  /// One build + gate + publish attempt; fills `outcome` and returns its
  /// status (non-OK, non-deadline => the attempt failed and may retry).
  Status AttemptRebuild(const OctInput& batch, double current_score,
                        RebuildOutcome* outcome);
  void FinishRebuild(RebuildOutcome outcome);
  /// Re-probes drift for a coalesced batch and either runs its rebuild or
  /// releases the slot (the chained continuation of FinishRebuild).
  void RunPendingBatch(std::shared_ptr<OctInput> batch);
  /// Hands the rebuild slot to the pending batch, or releases it.
  void ReleaseSlotOrChain();
  /// Feeds one finished rebuild into the breaker state machine.
  void UpdateBreakerLocked(const RebuildOutcome& outcome);
  /// True when the breaker admits a new attempt (may transition open ->
  /// half-open when the cooldown has elapsed).
  bool BreakerAdmitsLocked();

  TreeStore* const store_;
  ServeStats* const stats_;
  const data::Dataset* const dataset_;
  const Similarity sim_;
  const RebuildPolicy policy_;
  ThreadPool* const pool_;

  std::atomic<bool> in_flight_{false};
  obs::Heartbeat heartbeat_;
  mutable std::mutex mu_;  // Guards the fields below.
  std::condition_variable cv_done_;
  RebuildOutcome last_outcome_;
  double published_score_ = 0.0;
  /// Latest drifted batch that arrived while a rebuild was in flight.
  std::shared_ptr<OctInput> pending_batch_;
  CircuitState breaker_ = CircuitState::kClosed;
  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
  /// Jitter stream for retry backoff. Only the single in-flight rebuild
  /// draws from it, but it is guarded by mu_ for simplicity.
  Rng backoff_rng_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_REBUILD_SCHEDULER_H_
