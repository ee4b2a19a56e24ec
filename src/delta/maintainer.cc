#include "delta/maintainer.h"

#include <utility>

#include "obs/trace.h"

namespace oct {
namespace delta {

DeltaMaintainer::DeltaMaintainer(serve::TreeStore* store,
                                 serve::ServeStats* serve_stats,
                                 Similarity sim,
                                 DeltaMaintainerOptions options)
    : store_(store),
      serve_stats_(serve_stats),
      options_(std::move(options)),
      builder_(std::move(sim), options_.builder, &stats_) {}

std::string DeltaMaintainer::NoteFor(const DeltaApplyOutcome& outcome) {
  if (outcome.fallback_full) {
    return "delta-full:" + std::to_string(outcome.total_components);
  }
  return "delta:" + std::to_string(outcome.dirty_components) + "/" +
         std::to_string(outcome.total_components);
}

Result<serve::TreeVersion> DeltaMaintainer::PublishOutcomeLocked(
    DeltaApplyOutcome outcome) {
  if (options_.verify_epsilon > 0.0) {
    OCT_RETURN_NOT_OK(
        builder_.VerifyEquivalence(outcome.tree, options_.verify_epsilon));
  }
  const std::string note = NoteFor(outcome);
  const auto published = store_->Publish(std::move(outcome.tree), note);
  if (serve_stats_ != nullptr) {
    serve_stats_->RecordPublish(published->version());
  }
  last_outcome_ = std::move(outcome);  // tree already moved out above.
  return published->version();
}

Result<serve::TreeVersion> DeltaMaintainer::PumpOnce() {
  OCT_SPAN("delta/pump");
  std::lock_guard<std::mutex> lock(mu_);
  DeltaBatch batch = log_.DrainBatch(options_.max_batch_ops);
  if (batch.empty()) {
    heartbeat_.Beat();
    return serve::TreeVersion{0};
  }
  OCT_ASSIGN_OR_RETURN(DeltaApplyOutcome outcome,
                       builder_.ApplyBatch(batch));
  Result<serve::TreeVersion> published =
      PublishOutcomeLocked(std::move(outcome));
  // Heartbeat after the full apply+publish, so a wedged apply (or a stuck
  // publish hook) reads as a stalled pump on /sloz, not a quiet success.
  heartbeat_.Beat();
  return published;
}

Result<serve::TreeVersion> DeltaMaintainer::Republish() {
  OCT_SPAN("delta/republish");
  std::lock_guard<std::mutex> lock(mu_);
  // An empty batch applies nothing; the builder re-resolves whatever is
  // still dirty (typically nothing — clean components splice from cache).
  OCT_ASSIGN_OR_RETURN(DeltaApplyOutcome outcome,
                       builder_.ApplyBatch(DeltaBatch{}));
  return PublishOutcomeLocked(std::move(outcome));
}

Result<serve::TreeVersion> DeltaMaintainer::PublishFullRebuild() {
  OCT_SPAN("delta/publish_full");
  std::lock_guard<std::mutex> lock(mu_);
  OCT_ASSIGN_OR_RETURN(DeltaApplyOutcome outcome, builder_.FullRebuild());
  return PublishOutcomeLocked(std::move(outcome));
}

Result<serve::CandidateBuilder::Candidate> DeltaMaintainer::BuildCandidate(
    const OctInput& batch, const fault::CancelToken* cancel) {
  (void)cancel;  // Bounded by the dirty frontier, not a deadline.
  OCT_SPAN("delta/build_candidate");
  std::lock_guard<std::mutex> lock(mu_);
  // The scheduler's batch is the new cumulative truth: diff it against the
  // working set so only changed/removed queries pay for re-resolution. The
  // universe grows to the batch's catalog first so the misc category covers
  // exactly what a batch rebuild's would.
  builder_.mutable_working_set()->EnsureUniverse(batch.universe_size());
  std::vector<DeltaOp> ops = builder_.working_set().DiffOps(batch);
  DeltaBatch delta;
  delta.ops = std::move(ops);
  uint64_t seq = 0;
  for (DeltaOp& op : delta.ops) op.seq = ++seq;
  if (!delta.ops.empty()) {
    delta.first_seq = 1;
    delta.last_seq = seq;
  }
  OCT_ASSIGN_OR_RETURN(DeltaApplyOutcome outcome,
                       builder_.ApplyBatch(delta));
  Candidate candidate;
  candidate.note = NoteFor(outcome);
  candidate.tree = std::move(outcome.tree);
  last_outcome_ = std::move(outcome);
  return candidate;
}

DeltaApplyOutcome DeltaMaintainer::last_outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_outcome_;
}

}  // namespace delta
}  // namespace oct
