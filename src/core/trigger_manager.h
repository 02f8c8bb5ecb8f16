#ifndef TRIGGERMAN_CORE_TRIGGER_MANAGER_H_
#define TRIGGERMAN_CORE_TRIGGER_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/trigger_cache.h"
#include "catalog/trigger_catalog.h"
#include "core/actions.h"
#include "core/aggregates.h"
#include "core/data_source.h"
#include "core/events.h"
#include "core/firing_plan.h"
#include "core/trigger.h"
#include "core/trigger_directory.h"
#include "core/update_log.h"
#include "db/database.h"
#include "expr/token_batch.h"
#include "predindex/predicate_index.h"
#include "predindex/reoptimizer.h"
#include "runtime/driver.h"
#include "runtime/stage_metrics.h"
#include "runtime/task_queue.h"

namespace tman {

/// Configuration of a TriggerMan instance.
struct TriggerManagerOptions {
  /// Trigger cache capacity in trigger descriptions (§5.1's example:
  /// 16,384 descriptions fit a 64 MB cache at ~4 KB each). Only triggers
  /// that fire through a join network are cached; selection and
  /// aggregate triggers fire from their resident firing plans.
  size_t trigger_cache_capacity = 16384;

  /// Constant-set organization policy (thresholds / forcing).
  OrgPolicy org_policy;

  /// Driver/TmanTest configuration (§6).
  DriverConfig driver_config;

  /// §3's "persistent update queuing": stage update descriptors durably
  /// in the write-ahead log before acknowledging them. Either this or
  /// durable_wal selects the durable mode; with both false, updates go by
  /// main-memory delivery ("faster, but the safety ... will be lost").
  bool persistent_queue = true;

  /// Condition-level concurrency (Figure 5): fan each token into this
  /// many partition tasks. 1 = token-level concurrency only.
  uint32_t condition_partitions = 1;

  /// Columnar token-batch size: memory-mode batch submissions are chunked
  /// into groups of up to this many tokens, each group processed as ONE
  /// task through the batched predicate-index probe and the batched
  /// bytecode VM. <= 1 disables batching (every token gets its own task
  /// and runs the scalar pipeline — the differential-testing oracle).
  uint32_t batch_size = kDefaultTokenBatchSize;

  /// Rule-action concurrency: run fired actions as separate tasks
  /// instead of inline with condition testing.
  bool concurrent_actions = false;

  /// Durable ingestion: log every submitted batch to a write-ahead log
  /// and group-commit it before acknowledging, so acked-but-unprocessed
  /// tokens survive a crash and are replayed by Open(). Selects the same
  /// durable mode as persistent_queue.
  bool durable_wal = false;

  /// Checkpoint the WAL (snapshot live state, truncate the dead prefix)
  /// once it retains more than this many bytes beyond the last checkpoint
  /// record.
  uint64_t wal_checkpoint_bytes = 256 * 1024;

  /// Online adaptive re-optimization: Start() also spawns a background
  /// thread that runs one ConstantSetReoptimizer round every
  /// adapt_interval, switching constant-set organizations whose observed
  /// traffic says the install-time choice is wrong (see
  /// predindex/reoptimizer.h). Rounds can always be driven manually via
  /// RunAdaptationRound() / the `adapt run` command, even when false.
  bool adaptive = false;
  std::chrono::milliseconds adapt_interval{200};

  /// Hysteresis knobs and cost-model calibration for the re-optimizer.
  AdaptPolicy adapt_policy;
  CostModelParams cost_model;
};

/// Aggregate statistics.
struct TriggerManagerStats {
  uint64_t updates_submitted = 0;
  uint64_t tokens_processed = 0;
  uint64_t rule_firings = 0;
  ActionStats actions;
  TriggerCacheStats cache;
  PredicateIndexStats predicates;
  AlphaMemoryStats alpha;            // shared stored alpha memories
  AggregateShapeStats aggregates;    // shared aggregate shapes
  WalStats wal;                      // zeroes in memory mode
  uint64_t wal_pending_tokens = 0;   // durable tokens not yet processed
  /// Live per-stage latency/throughput + queue depth (tentpole part a).
  StageMetricsSnapshot stages;
  /// Adaptation counters: rounds run, organization switches installed,
  /// and total log events (applied + failed attempts).
  uint64_t adapt_rounds = 0;
  uint64_t adapt_switches = 0;
  uint64_t adapt_events = 0;
};

/// TriggerMan: the asynchronous trigger processor. Owns the predicate
/// index, trigger cache, catalogs, update log (WAL), task queue and driver
/// pool; exposes the command language plus programmatic APIs.
///
/// Typical use:
///   Database db;
///   ... create tables ...
///   TriggerManager tman(&db);
///   tman.Open();
///   tman.ExecuteCommand("define data source emp (...)");  // or
///   tman.DefineLocalTableSource("emp");
///   tman.ExecuteCommand("create trigger t1 from emp when ... do ...");
///   tman.Start();              // driver threads (or ProcessPending()
///                              // for single-threaded operation)
class TriggerManager {
 public:
  explicit TriggerManager(Database* db,
                          TriggerManagerOptions options = {});
  ~TriggerManager();

  TriggerManager(const TriggerManager&) = delete;
  TriggerManager& operator=(const TriggerManager&) = delete;

  /// Opens catalogs, reloads previously created triggers from the
  /// catalog (rebuilding the predicate index) and, in durable mode, opens
  /// the WAL and re-stages whatever it still holds unprocessed.
  Status Open();

  // --- command language ---------------------------------------------------

  /// Parses and executes one command; returns a human-readable summary.
  Result<std::string> ExecuteCommand(std::string_view text);

  /// Executes a ';'-separated script.
  Result<std::string> ExecuteScript(std::string_view text);

  // --- data sources ---------------------------------------------------------

  /// Registers a local MiniDB table as a data source and installs the
  /// update-capture hook (the auto-created "one trigger per table per
  /// update event" of §3).
  Result<DataSourceId> DefineLocalTableSource(const std::string& table);

  /// Registers a stream data source (data source API).
  Result<DataSourceId> DefineStreamSource(const std::string& name,
                                          const Schema& schema);

  // --- triggers ----------------------------------------------------------

  Status CreateTrigger(const CreateTriggerCmd& cmd);
  Status DropTrigger(const std::string& name);
  Status SetTriggerEnabled(const std::string& name, bool enabled);
  Status CreateTriggerSet(const std::string& name,
                          const std::string& comments);
  Status SetTriggerSetEnabled(const std::string& name, bool enabled);

  // --- update ingestion & processing -----------------------------------------

  /// Data source API entry: stages an update descriptor for asynchronous
  /// processing (durably in the WAL, or as an in-memory task).
  Status SubmitUpdate(const UpdateDescriptor& token);

  /// Batched entry: stages a whole batch with ONE task-queue PushBatch —
  /// one shard-lock acquisition and one driver wakeup amortized over the
  /// batch — so a remote ingestion batch does not take the queue lock
  /// per update. `per_update` (optional) receives one Status per token
  /// in order; the returned Status is the first failure (all tokens are
  /// attempted regardless).
  /// In durable mode, the batch is appended to the WAL and group-
  /// committed before any task is staged; the call returns only once the
  /// batch is durable (or with the commit error, in which case nothing
  /// was staged and no session sequence advanced). `stamp` (optional)
  /// records the batch's session identity in the log so dedup state
  /// survives restarts.
  Status SubmitUpdateBatch(const std::vector<UpdateDescriptor>& tokens,
                           std::vector<Status>* per_update = nullptr,
                           const BatchStamp* stamp = nullptr);

  /// Synchronously processes everything currently staged (single-
  /// threaded path used by tests and by callers not running drivers).
  Status ProcessPending();

  /// Starts / stops the driver pool (asynchronous processing).
  Status Start();
  void Stop();

  /// Blocks until all staged work is processed (drivers must be running).
  void Drain();

  // --- introspection -----------------------------------------------------------

  TriggerManagerStats stats() const;

  // --- adaptive re-optimization ------------------------------------------------

  /// One observation + adaptation round over the predicate index,
  /// serialized against the background thread. Callable whether or not
  /// options_.adaptive is set (tests and the `adapt run` command).
  AdaptRoundReport RunAdaptationRound();

  /// Gates the background thread's rounds without stopping it (`adapt
  /// on` / `adapt off`). Manual RunAdaptationRound calls are unaffected.
  void set_adaptive_enabled(bool enabled) {
    adapt_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool adaptive_enabled() const {
    return adapt_enabled_.load(std::memory_order_relaxed);
  }

  AdaptationLog& adaptation_log() { return adapt_log_; }
  ConstantSetReoptimizer& reoptimizer() { return *reopt_; }
  StageMetrics& stage_metrics() { return stage_metrics_; }

  // --- durability ------------------------------------------------------------

  // Forwarders to the durable mode's UpdateLog (core/update_log.h).
  bool wal_enabled() const { return log_.wal() != nullptr; }
  Wal* wal() { return log_.wal(); }

  /// Highest acknowledged sequence recovered (or logged) for `session` —
  /// the IPC server seeds reconnecting sessions from this so an
  /// idempotent resend after a crash is deduplicated.
  uint64_t RecoveredSessionSeq(const std::string& session) const {
    return log_.SessionSeq(session);
  }

  /// Logs a checkpoint record (live sessions + unprocessed tokens),
  /// commits it and truncates the log prefix it makes dead. Called
  /// automatically when the log exceeds wal_checkpoint_bytes.
  Status CheckpointWal() { return log_.Checkpoint(); }

  /// What the last Open() replayed from the WAL.
  const WalRecoveryInfo& last_recovery() const { return log_.recovery(); }

  /// Durable tokens whose processing has not completed yet.
  uint64_t WalPendingTokens() const { return log_.PendingTokens(); }

  /// Cluster rejoin fencing: for each (session, fence) pair, marks every
  /// pending (staged-but-unprocessed) token of that session with
  /// sequence > fence as fenced. A fenced token is never processed — its
  /// task completes by writing the kProcessed marker only. The router
  /// fences a rejoining node at the highest sequence it saw acked on the
  /// node's old channel: everything above the fence was re-routed to the
  /// partitions' new owners while the node was down, so replaying it here
  /// would fire it twice cluster-wide. Returns the number of tokens
  /// fenced. Fences are not durable — the router re-sends them with every
  /// partition-map install, so a crash between fencing and the markers'
  /// commit just re-fences on the next rejoin. Each (session, fence
  /// point) is applied at most once per process lifetime: later installs
  /// carrying the same fence must not swallow post-rejoin live traffic
  /// staged above the old fence point.
  uint64_t FenceWalSessions(const std::map<std::string, uint64_t>& fences) {
    return log_.Fence(fences);
  }

  /// Durable metadata blob riding in the WAL (latest write wins, carried
  /// inside checkpoints so truncation preserves it). The cluster node
  /// stores its partition-map epoch here so a rejoining node can prove
  /// how stale its map is. SetDurableMeta group-commits before returning.
  Status SetDurableMeta(std::string_view blob) { return log_.SetMeta(blob); }

  /// Last recovered (or set) durable meta blob; empty if none.
  std::string RecoveredMeta() const { return log_.Meta(); }

  /// Engine-wide processing hold, enforced inside the task queue: while
  /// paused no driver (threaded pool or external pumper) pops a task, so
  /// staged tokens cannot fire. Ingestion, WAL staging and acks continue.
  /// Open() pauses automatically when a former cluster member (non-empty
  /// durable meta) recovers unprocessed WAL tokens — the router's rejoin
  /// fences may invalidate some of them, and the hold must bind before
  /// any driver starts. The ClusterNode releases it on the next
  /// partition-map install; a deliberately standalone reopen of an
  /// ex-member calls ResumeProcessing() itself.
  void PauseProcessing() { task_queue_.Pause(); }
  void ResumeProcessing() { task_queue_.Resume(); }
  bool processing_paused() const { return task_queue_.paused(); }

  EventManager& events() { return events_; }
  /// Task-queue depth feeds the remote-ingestion credit window (ipc/);
  /// tests also install observers through this.
  TaskQueue& task_queue() { return task_queue_; }
  PredicateIndex& predicate_index() { return *pindex_; }
  TriggerCache& cache() { return *cache_; }
  TriggerCatalog& catalog() { return *catalog_; }
  DataSourceRegistry& sources() { return registry_; }
  Database* database() { return db_; }

  /// Pins a trigger (tests / tooling).
  Result<TriggerHandle> PinTrigger(const std::string& name);

 private:
  /// §5.1 steps 1–5 for an already-parsed statement. When `catalog_write`
  /// is false the trigger is being reloaded and catalog rows already
  /// exist.
  Status InstallTrigger(const CreateTriggerCmd& cmd, TriggerId trigger_id,
                        uint64_t ts_id, bool catalog_write);

  /// Builds the TriggerRuntime up to its condition graph (parse →
  /// condition graph) and returns each tuple variable's schema in
  /// `schemas`; the caller builds the network once its stored nodes'
  /// memories are known.
  Result<std::shared_ptr<TriggerRuntime>> BuildRuntime(
      const CreateTriggerCmd& cmd, TriggerId trigger_id, uint64_t ts_id,
      std::vector<Schema>* schemas);

  /// Detaches a removed (or never installed) trigger's stored nodes from
  /// their shared memories and its aggregate from its shape. A removed
  /// trigger's predicates must be gone first, so no maintenance pass can
  /// still reach its aggregate slot.
  void DetachState(const TriggerState* state);

  /// Token pipeline (§5.4): memory maintenance + fire matching + joins +
  /// action execution for one partition of the predicate index.
  Status ProcessToken(const UpdateDescriptor& token, uint32_t partition,
                      uint32_t num_partitions);

  /// Batched token pipeline: the maintenance pass runs per token (alpha
  /// memory upkeep is stateful and order-sensitive), then the tokens go
  /// through one PredicateIndex::MatchBatch fire pass — grouped probe
  /// hashing and batched rest-of-predicate eval — with per-lane error
  /// isolation (a failing token never stops its batch-mates). A token
  /// whose maintenance changes stored alpha memories first fires the
  /// tokens before it, so each token's joins see the memories the scalar
  /// pipeline would show them; a batch with no such token keeps one fire
  /// pass. Firing order per token is exactly the scalar order. Returns
  /// the first per-token error.
  Status ProcessTokenBatch(const std::vector<UpdateDescriptor>& tokens,
                           uint32_t partition, uint32_t num_partitions);

  /// The fire pass of ProcessTokenBatch over tokens[begin, end) whose
  /// `lane_status` is still OK; a failure lands in the token's lane.
  void FireTokens(const std::vector<UpdateDescriptor>& tokens, size_t begin,
                  size_t end, uint32_t partition, uint32_t num_partitions,
                  std::vector<Status>* lane_status);

  /// The maintenance pass of ProcessToken (stored alpha memories,
  /// aggregate group state), shared by the scalar and batched pipelines.
  /// Reaches each trigger's state through its firing plan, never the
  /// trigger cache, and updates each shared memory and each aggregate
  /// shape once per tuple.
  Status MaintainToken(const UpdateDescriptor& token, uint32_t partition,
                       uint32_t num_partitions);

  /// One fire-pass match: nothing unless the trigger fires (live,
  /// enabled, not an aggregate); a trigger without a network fires
  /// straight from its plan, the others pin their runtime and run its
  /// joins. Must run under the stripe lock the match came from.
  Status RunFiring(const PredicateMatch& match, const UpdateDescriptor& token);

  /// Runs the plan's action for one firing, inline or, with
  /// concurrent_actions, as its own task.
  void RunAction(const FiringPlan& plan, const ActionContext& ctx);

  /// One aggregate trigger a tuple's maintenance matched.
  struct AggregateMatch {
    const FiringPlan* plan;
    NetworkNodeId node;
  };

  /// Aggregate-trigger path (driven from token maintenance, so deletes
  /// and updates reach group state regardless of the event clause):
  /// applies one tuple delta to the shapes of the matched aggregate
  /// triggers, each shape once for all of its matches, and runs the
  /// action for every group whose having condition just became true.
  /// Must run under the stripe lock the matches came from.
  Status RunAggregateDeltas(const AggregateMatch* matches, size_t n,
                            const UpdateDescriptor& token, const Tuple& tuple,
                            bool add);

  /// Loader installed into the trigger cache; re-attaches the stored
  /// memories the trigger's firing plan holds.
  Result<TriggerHandle> LoadTrigger(TriggerId id);

  /// Registers a local table in the registry + predicate index and
  /// installs the capture hook (no catalog write).
  Status RestoreLocalTableSource(const std::string& table);

  /// Human-readable stats for the `stats` console/wire command.
  std::string StatsText() const;

  /// The `adapt <subcommand>` console/wire command: status | log | run |
  /// on | off.
  Result<std::string> AdaptCommand(std::string_view args);

  /// Builds the token task(s) for one descriptor (one per condition
  /// partition) without pushing, so batch submission can hand the whole
  /// set to TaskQueue::PushBatch in one call. A token staged in the log
  /// passes its `logged` slot; its tasks then report to the UpdateLog.
  void AppendTokenTasks(const UpdateDescriptor& token, std::vector<Task>* out,
                        std::optional<UpdateLog::Slot> logged = std::nullopt);

  /// Chunks `tokens` into groups of options_.batch_size and builds one
  /// ProcessTokenBatch task per (group, partition). batch_size <= 1
  /// degrades to per-token AppendTokenTasks (scalar pipeline).
  void AppendTokenBatchTasks(const std::vector<UpdateDescriptor>& tokens,
                             std::vector<Task>* out);

  Database* db_;
  TriggerManagerOptions options_;

  std::unique_ptr<TriggerCatalog> catalog_;
  std::unique_ptr<PredicateIndex> pindex_;
  std::unique_ptr<TriggerCache> cache_;
  UpdateLog log_;  // durable mode's persistent update queue (the WAL)
  DataSourceRegistry registry_;
  EventManager events_;
  std::unique_ptr<ActionExecutor> actions_;
  TaskQueue task_queue_;
  std::unique_ptr<DriverPool> drivers_;

  // Builds each trigger's firing plan, sharing action templates.
  ActionTemplates action_templates_;
  // One stored alpha memory per distinct join selection, attached to by
  // every stored node with that selection and held by their plans.
  AlphaMemoryRegistry alpha_memories_;
  // One aggregate shape per distinct (source, partition, group by,
  // aggregate calls), holding a slot per aggregate trigger.
  AggregateShapeRegistry aggregate_shapes_;
  // Per-match dispatch state and firing plans, read lock-free by the
  // token pipeline. DDL updates it under meta_mutex_'s exclusive lock.
  TriggerDirectory directory_;
  // Guards the maps below and serializes directory writers. The token
  // pipeline never takes it; a cache miss (LoadTrigger) reads a plan
  // under it.
  mutable std::shared_mutex meta_mutex_;
  std::map<std::string, TriggerId> trigger_by_name_;
  std::map<TriggerId, std::vector<ExprId>> expr_ids_by_trigger_;
  uint64_t default_ts_id_ = 0;
  bool opened_ = false;

  std::atomic<uint64_t> updates_submitted_{0};
  std::atomic<uint64_t> tokens_processed_{0};
  std::atomic<uint64_t> rule_firings_{0};

  // --- adaptive re-optimization ---------------------------------------------
  AdaptationLog adapt_log_;
  std::unique_ptr<ConstantSetReoptimizer> reopt_;
  StageMetrics stage_metrics_;
  // Serializes RunOnce (the reoptimizer keeps per-round deltas and is not
  // itself thread-safe; the background thread and `adapt run` may race).
  std::mutex adapt_run_mutex_;
  std::atomic<uint64_t> adapt_rounds_{0};
  std::atomic<bool> adapt_enabled_{true};
  // Background round thread (options_.adaptive): started by Start(),
  // joined by Stop().
  std::thread adapt_thread_;
  std::mutex adapt_thread_mutex_;
  std::condition_variable adapt_thread_cv_;
  bool adapt_stop_ = false;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_TRIGGER_MANAGER_H_
