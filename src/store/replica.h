// Replication on top of the version log: a ReplicaSet ships every committed
// record from a primary VersionLog to N local read replicas, each of which
// verifies the record (CRC32 framing + version lineage) before installing
// it into its own log and publishing it to its own TreeStore. The ship unit
// is VersionLog::RecordBytes() — self-describing framed bytes — so the
// transport is pluggable: the default fetcher reads the primary log
// directly, and FetchRecordOverHttp() pulls the same bytes off the
// exposition server's /store/record endpoint (the "existing exposition
// transport" path used by the chaos round and the online_store example).
//
// Failover policy, exercised by bench/store_recovery and run_chaos.sh:
//   - A replica whose install hits a lineage *gap* (record parent newer
//     than its latest) is kLagging; the set catches it up by fetching the
//     missing parents in order.
//   - A replica whose install hits a lineage *divergence* (same version,
//     different payload, or a parent behind its head) is kQuarantined: it
//     stops taking ships until ReSeed() wipes it and re-copies the primary
//     lineage.
//   - When the primary dies, PromoteBest() picks the healthy replica with
//     the highest committed version; its TreeStore becomes the serving
//     store and writers redirect to its log (see the failover drill in
//     bench/store_recovery).

#ifndef OCT_STORE_REPLICA_H_
#define OCT_STORE_REPLICA_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/watchdog.h"
#include "serve/tree_store.h"
#include "store/version_log.h"
#include "util/status.h"

namespace oct {
namespace store {

enum class ReplicaState {
  kHealthy = 0,
  /// Behind the primary; catch-up fetches are in order.
  kLagging,
  /// Lineage diverged; excluded from promotion until re-seeded.
  kQuarantined,
};

const char* ReplicaStateName(ReplicaState state);

/// One read replica: its own VersionLog directory plus a TreeStore serving
/// whatever it has installed. Thread-safe.
class Replica {
 public:
  /// Opens (or re-opens) the replica log in `dir`. `retain` sizes the
  /// replica's TreeStore history.
  static Result<std::unique_ptr<Replica>> Open(std::string name,
                                               std::string dir,
                                               size_t retain = 4);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Verifies and installs one framed record, publishing the decoded tree
  /// to the replica's TreeStore on success. State transitions:
  /// OK → kHealthy; OutOfRange (gap) → kLagging; DataLoss → kQuarantined.
  /// A quarantined replica rejects installs with FailedPrecondition until
  /// re-seeded.
  Status Install(const std::string& record_bytes);

  /// Wipes the replica directory and re-installs `records` (the primary's
  /// full lineage, oldest first). Restores kHealthy on success.
  Status ReSeed(const std::vector<std::string>& records);

  ReplicaState state() const;
  /// Latest version committed in the replica's own log.
  TreeVersion LatestVersion() const;

  const std::string& name() const { return name_; }
  const std::string& dir() const { return dir_; }
  /// The replica's serving store (what a promotion redirects readers to).
  serve::TreeStore* tree_store() { return &tree_store_; }
  const VersionLog* log() const { return log_.get(); }

 private:
  Replica(std::string name, std::string dir, size_t retain);

  const std::string name_;
  const std::string dir_;
  mutable std::mutex mu_;  // Guards log_ (swapped by ReSeed) and state_.
  std::unique_ptr<VersionLog> log_;
  ReplicaState state_ = ReplicaState::kHealthy;
  serve::TreeStore tree_store_;
};

/// Pulls the framed record bytes for `version` from somewhere — the
/// replication transport. Used for replica catch-up and re-seeding.
using RecordFetcher = std::function<Result<std::string>(TreeVersion)>;

/// Fetches a record off an exposition server's /store/record?version=N
/// endpoint on 127.0.0.1:`port` (see serve::ServingExposition).
Result<std::string> FetchRecordOverHttp(int port, TreeVersion version,
                                        double timeout_seconds = 5.0);

/// Snapshot of one replica's health for /statusz and the failover drill.
struct ReplicaStatus {
  std::string name;
  ReplicaState state = ReplicaState::kHealthy;
  TreeVersion version = 0;
  /// Versions behind the primary (0 when caught up or ahead post-failover).
  uint64_t lag = 0;
};

/// Ships committed records from `primary` to the registered replicas and
/// implements the failover policy. Thread-safe; ships run on the caller's
/// thread (typically right after a VersionLog commit).
class ReplicaSet {
 public:
  /// `primary` must outlive the set. The default fetcher reads records
  /// straight from `primary`; SetFetcher() swaps in a remote transport.
  explicit ReplicaSet(const VersionLog* primary);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  void SetFetcher(RecordFetcher fetcher);

  /// Registers a replica (the set owns it).
  Replica* AddReplica(std::unique_ptr<Replica> replica);

  /// Ships the committed record `version` to every replica, driving
  /// catch-up for laggers and quarantining divergent lineages. Returns the
  /// first hard error (individual replica failures degrade that replica's
  /// state but do not fail the ship).
  Status ShipCommitted(TreeVersion version);

  /// Brings every non-quarantined replica up to the primary's latest
  /// committed version.
  Status SyncAll();

  /// Re-seeds every quarantined replica from the primary lineage.
  Status ReSeedQuarantined();

  /// Failover: the non-quarantined replica with the highest committed
  /// version. NotFound when every replica is quarantined (or none exist).
  Result<Replica*> PromoteBest();

  std::vector<ReplicaStatus> Statuses() const;

  /// The shipper's liveness: beaten once per completed ShipCommitted pass.
  const obs::Heartbeat& heartbeat() const { return heartbeat_; }

  size_t num_replicas() const;
  Replica* replica(size_t i);

 private:
  /// Installs `version` into `replica`, fetching missing parents on a
  /// lineage gap. Updates repl.* metrics.
  Status InstallWithCatchUp(Replica* replica, TreeVersion version);

  const VersionLog* const primary_;
  mutable std::mutex mu_;  // Guards replicas_ and fetcher_.
  RecordFetcher fetcher_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  obs::Heartbeat heartbeat_;
};

}  // namespace store
}  // namespace oct

#endif  // OCT_STORE_REPLICA_H_
