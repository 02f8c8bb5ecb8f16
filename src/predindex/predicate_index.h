#ifndef TRIGGERMAN_PREDINDEX_PREDICATE_INDEX_H_
#define TRIGGERMAN_PREDINDEX_PREDICATE_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "predindex/signature_index.h"

namespace tman {

/// Counters exposed by the predicate index.
struct PredicateIndexStats {
  uint64_t tokens_processed = 0;
  uint64_t matches_emitted = 0;
  uint64_t num_signatures = 0;
  uint64_t num_predicates = 0;
  /// Compiled rest-of-predicate programs held: at most one per signature
  /// class, however many predicates the class has.
  uint64_t rest_programs = 0;
};

/// Per-stripe occupancy, for the console's live inspection and for
/// load-balance checks in tests.
struct PredicateIndexStripeStats {
  size_t num_sources = 0;
  size_t num_signatures = 0;
  size_t num_predicates = 0;
};

/// One signature's runtime statistics with its home data source — the
/// unit the adaptive re-optimizer reasons about.
struct SignatureStatsReport {
  DataSourceId source = 0;
  SignatureRuntimeStats stats;
};

/// What to register for one selection predicate of a trigger (§5.1 step 5).
struct PredicateSpec {
  DataSourceId data_source = 0;
  OpCode op = OpCode::kInsertOrUpdate;
  std::vector<std::string> update_columns;  // sorted lowercase, may be empty
  ExprPtr predicate;                        // may be null (no condition)
  TriggerId trigger_id = 0;
  NetworkNodeId next_node = 0;
};

/// Outcome of AddPredicate, used to maintain the trigger catalogs.
struct AddPredicateInfo {
  ExprId expr_id = 0;
  uint64_t sig_id = 0;
  bool new_signature = false;
  OrgType org = OrgType::kMemoryList;
  size_t class_size = 0;
  std::string signature_desc;
  std::vector<Value> constants;
};

/// The root of the selection predicate index (Figure 3): a hash table on
/// data source ID leading to per-source signature lists, constant sets
/// and triggerID sets. Takes an update descriptor and identifies all
/// predicates matching it.
///
/// Thread-safe and striped for scale: the root hash table is split into
/// `num_stripes` stripes by data source ID, each under its own
/// shared_mutex. Matching takes only its stripe's read lock; trigger
/// create/drop takes only its stripe's write lock, so a slow trigger
/// install (predicate generalization, constant-table inserts) stalls
/// matching on one stripe instead of serializing every driver (token-
/// level concurrency, §6, without a global serialization point).
class PredicateIndex {
 public:
  /// `db` hosts constant tables for organizations 3/4; may be null when
  /// the policy never selects them. `num_stripes` = 0 picks the default
  /// (16 — enough that per-source workloads spread across CI core
  /// counts).
  explicit PredicateIndex(Database* db = nullptr, OrgPolicy policy = OrgPolicy(),
                          uint32_t num_stripes = 0);

  PredicateIndex(const PredicateIndex&) = delete;
  PredicateIndex& operator=(const PredicateIndex&) = delete;

  Status RegisterDataSource(DataSourceId id, const Schema& schema);
  bool HasDataSource(DataSourceId id) const;

  /// Generalizes the predicate, dedupes its signature, stores the
  /// constants + rest, and returns catalog bookkeeping info.
  Result<AddPredicateInfo> AddPredicate(const PredicateSpec& spec);

  /// Removes one predicate instance (by the exprID AddPredicate assigned).
  Status RemovePredicate(ExprId expr_id);

  /// Finds every predicate matching the token; appends PredicateMatches.
  Status Match(const UpdateDescriptor& token,
               std::vector<PredicateMatch>* out) const;

  /// Streaming + partitioned variant (condition-level concurrency).
  Status MatchPartitioned(
      const UpdateDescriptor& token, uint32_t partition,
      uint32_t num_partitions,
      const std::function<void(const PredicateMatch&)>& fn) const;

  /// Batched matching: one call covers a whole token batch. Tokens are
  /// grouped by data source, so each (stripe, source) group pays one
  /// shared-lock acquisition and one probe-key pass instead of one per
  /// token, and rest-of-predicate tests run through the batched VM.
  /// `fn(lane, match)` receives the token's index in `tokens` with each
  /// match. Per-token outcomes land in `per_token` (optional; resized to
  /// tokens.size()): lane i's status is exactly what the scalar
  /// MatchPartitioned call for tokens[i] would have returned, and a
  /// failing token stops matching (as in the scalar path) without
  /// disturbing the rest of the batch. Returns the first per-token error
  /// for callers that only need one.
  Status MatchBatch(
      const std::vector<UpdateDescriptor>& tokens, uint32_t partition,
      uint32_t num_partitions,
      const std::function<void(size_t, const PredicateMatch&)>& fn,
      std::vector<Status>* per_token = nullptr) const;

  /// Maintenance matching: selection predicates only (no event filters),
  /// against a bare tuple of the given source. Drives A-TREAT alpha
  /// memory upkeep for updates and deletes. `done` (optional) runs after
  /// the last match under the same stripe lock, so what `fn` gathered
  /// about the matched triggers stays valid in it.
  Status MatchMaintenance(
      DataSourceId data_source, const Tuple& tuple, uint32_t partition,
      uint32_t num_partitions,
      const std::function<void(const PredicateMatch&)>& fn,
      const std::function<Status()>& done = nullptr) const;

  PredicateIndexStats stats() const;

  uint32_t num_stripes() const {
    return static_cast<uint32_t>(stripes_.size());
  }
  uint32_t StripeOf(DataSourceId id) const;
  std::vector<PredicateIndexStripeStats> stripe_stats() const;

  /// Per-source access for tests, benches and the catalog.
  const DataSourcePredicateIndex* source(DataSourceId id) const;

  // --- adaptive re-optimization surface ---------------------------------

  /// Runtime statistics of every signature (one shared-lock pass per
  /// stripe).
  std::vector<SignatureStatsReport> SignatureStats() const;

  /// Entry lookup by (source, sig id). The returned pointer is stable
  /// (entries are heap-allocated and never dropped); null when unknown.
  /// Reading or mutating through it still requires the stripe lock —
  /// use WithStripeShared / WithStripeExclusive.
  SignatureIndexEntry* FindSignature(DataSourceId source,
                                     uint64_t sig_id) const;

  /// Runs `fn` under the stripe lock that guards `source`'s signature
  /// entries: shared for snapshotting (concurrent matching continues),
  /// exclusive for the organization swap (matchers on the old
  /// organization have drained once it is acquired — the epoch barrier
  /// of the swap protocol).
  Status WithStripeShared(DataSourceId source,
                          const std::function<Status()>& fn) const;
  Status WithStripeExclusive(DataSourceId source,
                             const std::function<Status()>& fn);

 private:
  struct Stripe {
    mutable std::shared_mutex mutex;
    std::unordered_map<DataSourceId,
                       std::unique_ptr<DataSourcePredicateIndex>>
        sources;
  };

  Stripe& StripeFor(DataSourceId id) const;

  Database* db_;
  OrgPolicy policy_;

  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Control-plane map from exprID to its home (data source + entry).
  // Touched only by AddPredicate/RemovePredicate; entry pointers are
  // stable (entries are heap-allocated and sources are never dropped).
  mutable std::mutex home_mutex_;
  std::unordered_map<ExprId, std::pair<DataSourceId, SignatureIndexEntry*>>
      predicate_home_;

  std::atomic<uint64_t> next_expr_id_{1};
  std::atomic<uint64_t> next_sig_id_{1};

  mutable std::atomic<uint64_t> tokens_processed_{0};
  mutable std::atomic<uint64_t> matches_emitted_{0};
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_PREDICATE_INDEX_H_
