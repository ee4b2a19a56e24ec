#include "store/replica.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "fault/failpoint.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace oct {
namespace store {

namespace fs = std::filesystem;

namespace {

obs::Counter* ReplCounter(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name);
}

}  // namespace

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kHealthy:
      return "healthy";
    case ReplicaState::kLagging:
      return "lagging";
    case ReplicaState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

Replica::Replica(std::string name, std::string dir, size_t retain)
    : name_(std::move(name)), dir_(std::move(dir)), tree_store_(retain) {}

Result<std::unique_ptr<Replica>> Replica::Open(std::string name,
                                               std::string dir,
                                               size_t retain) {
  std::unique_ptr<Replica> replica(
      new Replica(std::move(name), std::move(dir), retain));
  OCT_ASSIGN_OR_RETURN(replica->log_, VersionLog::Open(replica->dir_));
  // A reopened replica resumes serving whatever it had installed.
  if (replica->log_->LatestVersion() > 0) {
    OCT_ASSIGN_OR_RETURN(CategoryTree tree, replica->log_->OpenLatest());
    replica->tree_store_.Publish(
        std::move(tree),
        "replica:" + replica->name_ + ":v" +
            std::to_string(replica->log_->LatestVersion()));
  }
  return replica;
}

Status Replica::Install(const std::string& record_bytes) {
  OCT_SPAN("store/replica_install");
  static obs::Counter* installs = ReplCounter("repl.installs");
  static obs::Counter* failures = ReplCounter("repl.install_failures");
  static obs::Counter* quarantines = ReplCounter("repl.quarantines");
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == ReplicaState::kQuarantined) {
    return Status::FailedPrecondition("replica " + name_ +
                                      " is quarantined; re-seed first");
  }
  Status armed = OCT_FAILPOINT("repl.install");
  if (!armed.ok()) {
    failures->Increment();
    return armed;
  }
  const TreeVersion before = log_->LatestVersion();
  Status s = log_->InstallRecord(record_bytes);
  if (s.ok()) {
    state_ = ReplicaState::kHealthy;
    const TreeVersion after = log_->LatestVersion();
    if (after != before) {
      auto tree = log_->OpenLatest();
      if (tree.ok()) {
        tree_store_.Publish(std::move(tree).value(),
                            "replica:" + name_ + ":v" +
                                std::to_string(after));
      }
      installs->Increment();
    }
    return Status::OK();
  }
  failures->Increment();
  if (s.code() == StatusCode::kOutOfRange) {
    state_ = ReplicaState::kLagging;
  } else if (s.code() == StatusCode::kDataLoss) {
    OCT_LOG_WARNING << "quarantining replica " << name_ << ": "
                    << s.ToString();
    state_ = ReplicaState::kQuarantined;
    quarantines->Increment();
  }
  return s;
}

Status Replica::ReSeed(const std::vector<std::string>& records) {
  OCT_SPAN("store/replica_reseed");
  static obs::Counter* reseeds = ReplCounter("repl.reseeds");
  std::lock_guard<std::mutex> lock(mu_);
  // Wipe and rebuild the on-disk log from the provided lineage; the
  // replica's TreeStore keeps serving its old snapshot until the new one
  // publishes (readers never see a gap).
  log_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
  if (ec) {
    return Status::Internal("cannot wipe replica dir " + dir_ + ": " +
                            ec.message());
  }
  OCT_ASSIGN_OR_RETURN(log_, VersionLog::Open(dir_));
  for (const std::string& record : records) {
    OCT_RETURN_NOT_OK(log_->InstallRecord(record));
  }
  state_ = ReplicaState::kHealthy;
  if (log_->LatestVersion() > 0) {
    OCT_ASSIGN_OR_RETURN(CategoryTree tree, log_->OpenLatest());
    tree_store_.Publish(std::move(tree),
                        "replica:" + name_ + ":reseed:v" +
                            std::to_string(log_->LatestVersion()));
  }
  reseeds->Increment();
  return Status::OK();
}

ReplicaState Replica::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

TreeVersion Replica::LatestVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_ == nullptr ? 0 : log_->LatestVersion();
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

Result<std::string> FetchRecordOverHttp(int port, TreeVersion version,
                                        double timeout_seconds) {
  OCT_ASSIGN_OR_RETURN(
      const std::string response,
      obs::HttpGetLocal(port,
                        "/store/record?version=" + std::to_string(version),
                        timeout_seconds));
  const size_t body_start = response.find("\r\n\r\n");
  if (body_start == std::string::npos) {
    return Status::Internal("malformed /store/record response");
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    return Status::NotFound("/store/record v" + std::to_string(version) +
                            ": " + status_line);
  }
  return response.substr(body_start + 4);
}

// ---------------------------------------------------------------------------
// ReplicaSet
// ---------------------------------------------------------------------------

ReplicaSet::ReplicaSet(const VersionLog* primary) : primary_(primary) {
  fetcher_ = [primary](TreeVersion version) {
    return primary->RecordBytes(version);
  };
}

void ReplicaSet::SetFetcher(RecordFetcher fetcher) {
  std::lock_guard<std::mutex> lock(mu_);
  fetcher_ = std::move(fetcher);
}

Replica* ReplicaSet::AddReplica(std::unique_ptr<Replica> replica) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.push_back(std::move(replica));
  return replicas_.back().get();
}

size_t ReplicaSet::num_replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size();
}

Replica* ReplicaSet::replica(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return i < replicas_.size() ? replicas_[i].get() : nullptr;
}

Status ReplicaSet::InstallWithCatchUp(Replica* replica, TreeVersion version) {
  RecordFetcher fetcher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fetcher = fetcher_;
  }
  OCT_ASSIGN_OR_RETURN(const std::string record, fetcher(version));
  Status s = replica->Install(record);
  if (s.code() != StatusCode::kOutOfRange) return s;
  // Lineage gap: the replica missed earlier ships. Log versions ascend
  // contiguously (WarmStart keeps the sequence dense across restarts), so
  // walk the gap in order; a version the primary already compacted away
  // means the replica fell behind the horizon and must re-seed instead.
  for (TreeVersion v = replica->LatestVersion() + 1; v <= version; ++v) {
    auto gap_record = fetcher(v);
    if (!gap_record.ok()) {
      OCT_LOG_WARNING << "replica " << replica->name()
                      << " fell behind the compaction horizon at v" << v
                      << "; re-seeding";
      std::vector<std::string> records;
      for (const LogEntry& e : primary_->Lineage()) {
        OCT_ASSIGN_OR_RETURN(std::string bytes, fetcher(e.version));
        records.push_back(std::move(bytes));
      }
      return replica->ReSeed(records);
    }
    OCT_RETURN_NOT_OK(replica->Install(gap_record.value()));
  }
  return Status::OK();
}

Status ReplicaSet::ShipCommitted(TreeVersion version) {
  OCT_SPAN("store/ship_committed");
  static obs::Counter* ships = ReplCounter("repl.ships");
  static obs::Counter* ship_failures = ReplCounter("repl.ship_failures");
  static obs::Gauge* max_lag = obs::MetricsRegistry::Default()->GetGauge(
      "repl.max_lag", "versions the most-behind healthy replica trails by");
  std::vector<Replica*> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas.reserve(replicas_.size());
    for (const auto& r : replicas_) replicas.push_back(r.get());
  }
  Status first_error = Status::OK();
  for (Replica* replica : replicas) {
    if (replica->state() == ReplicaState::kQuarantined) continue;
    const Status dropped = OCT_FAILPOINT("repl.ship");
    if (!dropped.ok()) {
      // Simulated transport drop: the replica just lags and catches up on
      // the next ship.
      ship_failures->Increment();
      continue;
    }
    const Status s = InstallWithCatchUp(replica, version);
    if (s.ok()) {
      ships->Increment();
    } else {
      ship_failures->Increment();
      if (first_error.ok() && s.code() != StatusCode::kDataLoss) {
        first_error = s;
      }
    }
  }
  uint64_t worst = 0;
  const TreeVersion primary_latest = primary_->LatestVersion();
  for (Replica* replica : replicas) {
    if (replica->state() == ReplicaState::kQuarantined) continue;
    const TreeVersion v = replica->LatestVersion();
    if (v < primary_latest) worst = std::max(worst, primary_latest - v);
  }
  max_lag->Set(static_cast<int64_t>(worst));
  // One heartbeat per completed ship pass (even a failing one: the pump is
  // alive, the transport is the problem — the breaker owns that signal).
  heartbeat_.Beat();
  return first_error;
}

Status ReplicaSet::SyncAll() {
  const TreeVersion latest = primary_->LatestVersion();
  if (latest == 0) return Status::OK();
  OCT_RETURN_NOT_OK(ReSeedQuarantined());
  return ShipCommitted(latest);
}

Status ReplicaSet::ReSeedQuarantined() {
  std::vector<Replica*> replicas;
  RecordFetcher fetcher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : replicas_) replicas.push_back(r.get());
    fetcher = fetcher_;
  }
  std::vector<std::string> records;
  for (Replica* replica : replicas) {
    if (replica->state() != ReplicaState::kQuarantined) continue;
    if (records.empty()) {
      for (const LogEntry& e : primary_->Lineage()) {
        OCT_ASSIGN_OR_RETURN(std::string bytes, fetcher(e.version));
        records.push_back(std::move(bytes));
      }
    }
    OCT_RETURN_NOT_OK(replica->ReSeed(records));
  }
  return Status::OK();
}

Result<Replica*> ReplicaSet::PromoteBest() {
  OCT_SPAN("store/promote_best");
  static obs::Counter* promotions = ReplCounter("repl.promotions");
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("repl.promote"));
  std::vector<Replica*> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : replicas_) replicas.push_back(r.get());
  }
  Replica* best = nullptr;
  TreeVersion best_version = 0;
  for (Replica* replica : replicas) {
    if (replica->state() == ReplicaState::kQuarantined) continue;
    const TreeVersion v = replica->LatestVersion();
    if (best == nullptr || v > best_version) {
      best = replica;
      best_version = v;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        "no promotable replica (all quarantined or none registered)");
  }
  promotions->Increment();
  return best;
}

std::vector<ReplicaStatus> ReplicaSet::Statuses() const {
  std::vector<Replica*> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : replicas_) replicas.push_back(r.get());
  }
  const TreeVersion primary_latest = primary_->LatestVersion();
  std::vector<ReplicaStatus> out;
  out.reserve(replicas.size());
  for (Replica* replica : replicas) {
    ReplicaStatus status;
    status.name = replica->name();
    status.state = replica->state();
    status.version = replica->LatestVersion();
    status.lag = status.version < primary_latest
                     ? primary_latest - status.version
                     : 0;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace store
}  // namespace oct
