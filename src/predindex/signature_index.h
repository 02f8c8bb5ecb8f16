#ifndef TRIGGERMAN_PREDINDEX_SIGNATURE_INDEX_H_
#define TRIGGERMAN_PREDINDEX_SIGNATURE_INDEX_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "predindex/organization.h"
#include "predindex/predicate_entry.h"
#include "types/schema.h"
#include "types/update_descriptor.h"
#include "util/sharded_counter.h"

namespace tman {

class CompiledPredicate;

/// Policy for choosing (and migrating) a signature's constant-set
/// organization by equivalence-class size. The defaults mirror the
/// paper's guidance: low-overhead main-memory structures for the common
/// case, database tables (mandatory for scalability) once the class is
/// too large to pin in memory.
struct OrgPolicy {
  size_t list_max = 16;        // beyond this: main-memory index
  size_t memory_max = 100000;  // beyond this: indexed database table
  bool use_db_index = true;    // false: organization 3 instead of 4
  bool forced = false;         // pin `forced_type` regardless of size
  OrgType forced_type = OrgType::kMemoryList;
};

/// Runtime statistics of one signature's equivalence class, read by the
/// adaptive re-optimizer. probes/candidates/matches are collected with
/// sharded relaxed-atomic counters on the match path (candidates/probes
/// is the observed constant-set fan-out, matches/probes the observed
/// selectivity); `version` is the class mutation counter the epoch-style
/// organization swap validates against.
struct SignatureRuntimeStats {
  uint64_t sig_id = 0;
  std::string description;
  OrgType org = OrgType::kMemoryList;
  size_t class_size = 0;
  bool has_range = false;       // range signature: MemoryIndex promotion
                                // engages the interval skip index
  uint64_t probes = 0;          // tokens probed against this class
  uint64_t candidates = 0;      // entries tested (fan-out numerator)
  uint64_t matches = 0;         // predicate matches emitted
  uint64_t version = 0;
  uint32_t org_switches = 0;    // adaptive swaps installed so far
};

/// One entry of a data source's expression signature list (Figure 3):
/// the signature, its indexable split resolved against the source schema,
/// and the organization holding its equivalence class.
class SignatureIndexEntry {
 public:
  SignatureIndexEntry(SignatureContext ctx, Database* db, OrgPolicy policy);

  /// Resolves attribute positions, creates the initial organization and
  /// compiles the rest template once for the whole class. `constants`
  /// (the first row's) types the constants slot; other rows may hold
  /// other types, since typed ops guard the runtime types.
  Status Open(const Schema& schema, const Tuple& constants);

  /// Adds one predicate instance, migrating the organization if the
  /// class outgrew the current one.
  Status Insert(const PredicateEntry& entry);

  Status Remove(ExprId expr_id);

  /// Matches a token: computes the probe from the token's effective
  /// tuple, filters the event condition (opcode + changed columns),
  /// consults the organization, tests rest-of-predicate, and emits a
  /// PredicateMatch per fully matched predicate. `partition` of
  /// `num_partitions` restricts to a triggerID-set partition (Figure 5);
  /// pass (0, 1) for unpartitioned matching.
  Status Match(const UpdateDescriptor& token, uint32_t partition,
               uint32_t num_partitions,
               const std::function<void(const PredicateMatch&)>& fn) const;

  /// Maintenance matching: tests only the selection predicate (no event
  /// opcode or changed-column filtering) against a bare tuple. Used to
  /// decide which alpha memories a tuple enters or leaves when tokens
  /// update stored A-TREAT memories.
  Status MatchTuple(const Tuple& tuple, uint32_t partition,
                    uint32_t num_partitions,
                    const std::function<void(const PredicateMatch&)>& fn)
      const;

  /// Batched Match over `lanes[0..num_lanes)` of `tokens`: filters the
  /// event condition per lane, builds every surviving lane's probe in one
  /// tight pass before the organization is consulted, gathers candidates
  /// in organization order, then tests the rest of the predicate (pass 4)
  /// with one EvalBatch of the class's rest program: each candidate of
  /// every lane is one batch lane binding (token tuple, entry constants).
  /// A refused template runs the interpreter per candidate instead.
  /// Emission order and error behavior per lane are exactly the scalar
  /// Match's: a lane's matches stream in candidate order until its first
  /// eval error, which lands in `lane_status[lane]` and stops that lane
  /// (others continue).
  /// `fn(lane, match)` receives the token index alongside each match.
  void MatchBatch(const UpdateDescriptor* tokens, const uint32_t* lanes,
                  size_t num_lanes, uint32_t partition,
                  uint32_t num_partitions,
                  const std::function<void(size_t, const PredicateMatch&)>& fn,
                  Status* lane_status) const;

  const SignatureContext& context() const { return ctx_; }
  const ConstantSetOrganization* organization() const { return org_.get(); }
  /// The class's compiled rest program; null when the signature has no
  /// rest or the compiler refused it (the interpreter then runs the rest
  /// bound to each candidate's constants).
  const CompiledPredicate* rest_program() const { return rest_program_.get(); }
  size_t size() const { return org_ == nullptr ? 0 : org_->size(); }
  OrgType org_type() const { return org_->type(); }

  /// Candidate entries produced by the last Match calls (monotonic
  /// counter; used by tests/benches to observe selectivity).
  uint64_t candidates_tested() const { return candidates_tested_.Read(); }

  // --- adaptive re-optimization surface ---------------------------------
  //
  // The epoch-style swap protocol: the re-optimizer (1) copies the class
  // and reads `version()` under the owning stripe's SHARED lock, (2)
  // builds a fresh organization from the copy with NO lock held, and (3)
  // installs it under the stripe's EXCLUSIVE lock iff the version is
  // unchanged — readers of the old organization have drained (the
  // exclusive acquisition is the epoch barrier), the swap itself is one
  // pointer move, and a concurrent Insert/Remove aborts the install
  // (Status::Aborted) instead of losing the mutation.

  /// Class mutation counter: bumped by Insert, Remove and a successful
  /// InstallOrganization.
  uint64_t version() const { return version_.load(std::memory_order_relaxed); }

  /// Snapshot counters + organization shape (call under the stripe's
  /// shared lock so org type/size are consistent).
  SignatureRuntimeStats RuntimeStats() const;

  /// Copies every entry of the class (call under the stripe's shared
  /// lock).
  Status SnapshotEntries(std::vector<PredicateEntry>* out) const;

  /// Builds a fresh organization of `type` from a snapshot, touching no
  /// shared state — safe to run with no lock held. Only the main-memory
  /// organizations are adaptively rebuilt (database organizations keep
  /// the static size-threshold path).
  Result<std::unique_ptr<ConstantSetOrganization>> BuildOrganization(
      OrgType type, const std::vector<PredicateEntry>& entries) const;

  /// Swaps in an offside-built organization (call under the stripe's
  /// exclusive lock). Fails with Aborted when the class mutated since the
  /// snapshot (`expected_version` mismatch); on success the entry is
  /// pinned to the new type so the size-threshold migration in Insert
  /// does not immediately undo the adaptive decision.
  Status InstallOrganization(std::unique_ptr<ConstantSetOrganization> org,
                             uint64_t expected_version);

 private:
  OrgType PickOrgType(size_t size) const;
  Status MigrateTo(OrgType type);

  SignatureContext ctx_;
  Database* db_;
  OrgPolicy policy_;
  Schema schema_;
  std::unique_ptr<ConstantSetOrganization> org_;

  /// Tests the rest of the predicate for one candidate: the class
  /// program with `constants` bound to its second slot, or the
  /// interpreter over the rest bound to them when there is no program.
  Result<bool> TestRest(const Tuple& tuple, const Tuple& constants) const;

  std::shared_ptr<const CompiledPredicate> rest_program_;

  /// The probe of `tuple`, which must be at least `min_width_` wide.
  Probe ProbeOf(const Tuple& tuple) const;

  /// Whether a token passes the event condition: opcode, and for
  /// "on update(col, ...)" a listed column that actually changed.
  bool EventMatches(const UpdateDescriptor& token) const;

  // Resolved positions in the source schema. A tuple narrower than
  // min_width_ lacks an indexed field and matches nothing.
  std::vector<size_t> eq_fields_;
  int range_field_ = -1;
  size_t min_width_ = 0;
  std::vector<size_t> update_col_fields_;

  // Runtime statistics (sharded so concurrent matchers on one hot
  // signature do not serialize on a counter cache line). candidates is
  // always on (tests observe selectivity through it); probes/matches are
  // gated on runtime_stats::enabled().
  mutable ShardedCounter candidates_tested_;
  mutable ShardedCounter probes_;
  mutable ShardedCounter matches_;

  // Adaptive-swap bookkeeping. Mutated under the stripe's exclusive
  // lock; atomics so RuntimeStats can read them under the shared lock.
  std::atomic<uint64_t> version_{0};
  std::atomic<int> adaptive_pin_{0};  // 0 = none, else OrgType value
  std::atomic<uint32_t> org_switches_{0};
};

/// Per-data-source predicate index: the expression signature list of
/// Figure 3, reached from the root by hashing the data source ID.
class DataSourcePredicateIndex {
 public:
  DataSourcePredicateIndex(DataSourceId id, Schema schema, Database* db,
                           OrgPolicy policy)
      : id_(id), schema_(std::move(schema)), db_(db), policy_(policy) {}

  /// Finds the entry with this signature, creating it (with `sig_id`,
  /// its rest program typed after `constants`) if unseen. `created`
  /// reports novelty.
  Result<SignatureIndexEntry*> FindOrCreate(
      const ExpressionSignature& signature, const IndexableSplit& split,
      uint64_t sig_id, const Tuple& constants, bool* created);

  /// Matches a token against every signature in the list.
  Status Match(const UpdateDescriptor& token, uint32_t partition,
               uint32_t num_partitions,
               const std::function<void(const PredicateMatch&)>& fn) const;

  /// Batched Match: runs every signature's MatchBatch over the lanes
  /// still error-free, mirroring the scalar behavior that a token's first
  /// entry error stops its matching while other tokens continue.
  void MatchBatch(const UpdateDescriptor* tokens, const uint32_t* lanes,
                  size_t num_lanes, uint32_t partition,
                  uint32_t num_partitions,
                  const std::function<void(size_t, const PredicateMatch&)>& fn,
                  Status* lane_status) const;

  /// Maintenance matching (see SignatureIndexEntry::MatchTuple).
  Status MatchTuple(const Tuple& tuple, uint32_t partition,
                    uint32_t num_partitions,
                    const std::function<void(const PredicateMatch&)>& fn)
      const;

  const std::vector<std::unique_ptr<SignatureIndexEntry>>& entries() const {
    return entries_;
  }
  /// Entry by signature id (stable heap pointer; entries are never
  /// dropped), or null. The re-optimizer addresses classes this way.
  SignatureIndexEntry* FindBySigId(uint64_t sig_id) const;
  const Schema& schema() const { return schema_; }
  DataSourceId id() const { return id_; }

 private:
  DataSourceId id_;
  Schema schema_;
  Database* db_;
  OrgPolicy policy_;
  std::vector<std::unique_ptr<SignatureIndexEntry>> entries_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash_;
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_SIGNATURE_INDEX_H_
