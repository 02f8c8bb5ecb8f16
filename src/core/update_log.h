#ifndef TRIGGERMAN_CORE_UPDATE_LOG_H_
#define TRIGGERMAN_CORE_UPDATE_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "storage/wal.h"
#include "types/update_descriptor.h"
#include "util/result.h"

namespace tman {

/// Durable identity of a submitted batch: the session it came from and
/// the per-token sequence numbers the IPC layer assigned. Logged with the
/// batch so per-session exactly-once dedup survives a restart; ack_seq is
/// the session high-water mark after this batch (it also covers tokens
/// the server deduplicated or rejected, which carry no payload here).
struct BatchStamp {
  std::string session;
  uint64_t ack_seq = 0;
  std::vector<uint64_t> seqs;  // parallel to the submitted tokens
};

/// What WAL recovery found and re-staged during Open().
struct WalRecoveryInfo {
  uint64_t batches_replayed = 0;
  uint64_t tokens_replayed = 0;
  uint64_t checkpoints_seen = 0;
  uint64_t sessions_restored = 0;
};

/// §3's persistent update queue: the write-ahead log of update
/// descriptors plus the bookkeeping that drains it. Owns the Wal, the
/// pending (logged-but-unprocessed) tokens, the per-session ack
/// high-water marks, the cluster fences and the durable meta blob, and
/// every record payload format (kBatch, kProcessed, kMeta, kCheckpointV2,
/// and the legacy kCheckpoint, which is replayed but never written).
///
/// The engine stages a batch with Stage(), builds one task per (token,
/// condition partition), and each completed task reports Done(); the
/// token's last Done() appends its kProcessed marker. A crash loses only
/// what no commit covered: Open() on the next incarnation replays the log
/// and returns every token still owed processing.
///
/// Thread-safe. Lock order: this unit's mutex, then the Wal's. Group
/// commits run outside the mutex. The destructor performs no I/O.
class UpdateLog {
 public:
  /// Where a staged token sits in the log: its batch id (the kBatch
  /// record's end LSN) and its index within the batch.
  struct Slot {
    uint64_t batch_id = 0;
    uint32_t index = 0;
  };
  /// A token Open() found logged but not processed.
  struct Recovered {
    Slot slot;
    UpdateDescriptor token;
  };

  /// Opens (or creates) the log whose header page id is kept in `db`'s
  /// tman_meta table, replays it, and returns the tokens still pending.
  /// Every token completes after `partitions` Done() calls. The log is
  /// checkpointed once it retains more than `checkpoint_bytes`.
  Result<std::vector<Recovered>> Open(Database* db, uint32_t partitions,
                                      uint64_t checkpoint_bytes);

  /// Appends `tokens` as one kBatch record, registers them as pending,
  /// advances the stamp's session high-water mark and group-commits.
  /// Returns the batch id once the batch is durable. On a failed commit
  /// the batch is unregistered and the session mark rolled back, so
  /// nothing was staged.
  Result<uint64_t> Stage(const std::vector<UpdateDescriptor>& tokens,
                         const BatchStamp* stamp);

  /// True when Fence() marked this pending token as not-to-run.
  bool Fenced(uint64_t batch_id, uint32_t index) const;

  /// One partition task of the token finished. The last one appends the
  /// token's kProcessed marker (made durable by the next commit round)
  /// and drops the token from the pending set.
  void Done(uint64_t batch_id, uint32_t index);

  /// After Open(): Checkpoint() once the log retains more than
  /// `checkpoint_bytes` beyond the last checkpoint record. The record
  /// itself does not count: a backlog that is never Done() would otherwise
  /// re-snapshot on every Stage once it outgrew `checkpoint_bytes`.
  void MaybeCheckpoint();

  /// Logs a kCheckpointV2 record (meta blob, sessions, pending tokens),
  /// commits it and truncates the prefix it makes dead.
  Status Checkpoint();

  /// Cluster rejoin fencing; see TriggerManager::FenceWalSessions.
  /// Returns the number of tokens newly fenced.
  uint64_t Fence(const std::map<std::string, uint64_t>& fences);

  /// Logs and group-commits a kMeta record (latest wins on replay).
  Status SetMeta(std::string_view blob);
  std::string Meta() const;

  /// Highest acknowledged sequence recovered (or staged) for `session`.
  uint64_t SessionSeq(const std::string& session) const;

  /// Tokens staged or recovered whose processing has not completed.
  uint64_t PendingTokens() const;

  /// What Open() replayed.
  const WalRecoveryInfo& recovery() const { return recovery_; }

  /// The underlying log; null until Open().
  Wal* wal() const { return wal_.get(); }

 private:
  struct PendingToken {
    std::string serialized;
    uint64_t seq = 0;  // session sequence (0 = unstamped submitter)
    uint32_t remaining_parts = 1;
    bool fenced = false;  // see Fence
  };
  struct PendingBatch {
    std::string session;
    std::map<uint32_t, PendingToken> tokens;  // index -> token
  };
  using PendingMap = std::map<uint64_t, PendingBatch>;  // batch id -> batch
  using SessionMap = std::map<std::string, uint64_t>;

  /// Decodes a checkpoint payload, replacing `*sessions` and `*pending`.
  /// `v2` selects the kCheckpointV2 layout; the legacy kCheckpoint layout
  /// has no meta blob (`*meta` is left as is) and no per-token seq (0).
  Status DecodeCheckpoint(std::string_view payload, bool v2, std::string* meta,
                          SessionMap* sessions, PendingMap* pending) const;

  std::unique_ptr<Wal> wal_;
  uint32_t partitions_ = 1;
  uint64_t checkpoint_bytes_ = 0;

  mutable std::mutex mutex_;
  // Durable-but-unprocessed tokens. Checkpoints snapshot exactly this map
  // plus sessions_ and meta_.
  PendingMap pending_;
  // Batches registered in pending_ whose group commit has not resolved
  // yet. Checkpoint waits for this to drain before snapshotting: a batch
  // whose commit fails is erased and its session seq rolled back, so a
  // checkpoint that listed it would durably resurrect it (and replay
  // would fire it again after the client's dedup-passing resend).
  uint64_t commits_in_flight_ = 0;
  std::condition_variable inflight_cv_;
  // Per-session acknowledged high-water marks (the durable dedup state).
  SessionMap sessions_;
  // Highest fence point already applied per session (Fence); deliberately
  // NOT durable — a reboot must re-fence recovered tokens.
  SessionMap fences_applied_;
  // Durable metadata blob (SetMeta); latest record wins on replay.
  std::string meta_;
  std::atomic<bool> checkpointing_{false};
  // Size of the last checkpoint record (header included); MaybeCheckpoint
  // discounts it.
  std::atomic<uint64_t> last_checkpoint_bytes_{0};
  WalRecoveryInfo recovery_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_UPDATE_LOG_H_
