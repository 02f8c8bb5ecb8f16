#ifndef TRIGGERMAN_PREDINDEX_ORG_MEMORY_H_
#define TRIGGERMAN_PREDINDEX_ORG_MEMORY_H_

#include <unordered_map>
#include <vector>

#include "predindex/interval_index.h"
#include "predindex/organization.h"

namespace tman {

/// Organization 1: a plain main-memory list. O(n) match, near-zero
/// constant factors and memory overhead — the paper's choice for tiny
/// equivalence classes.
class MemoryListOrganization : public ConstantSetOrganization {
 public:
  explicit MemoryListOrganization(const SignatureContext* ctx) : ctx_(ctx) {}

  OrgType type() const override { return OrgType::kMemoryList; }
  Status Insert(const PredicateEntry& entry) override;
  Status Remove(ExprId expr_id) override;
  Status Match(const Probe& probe,
               const std::function<void(const PredicateEntry&)>& fn)
      const override;
  Status ForEach(const std::function<void(const PredicateEntry&)>& fn)
      const override;
  size_t size() const override { return entries_.size(); }

 private:
  const SignatureContext* ctx_;
  std::vector<PredicateEntry> entries_;
};

/// Organization 2: a main-memory index. Equality signatures hash the
/// composite constant key to its triggerID set — the fully normalized
/// constant-set / triggerID-set structure of Figure 4, which also gives
/// common sub-expression elimination (each distinct constant is stored
/// and probed once no matter how many triggers share it). Range
/// signatures use the interval index. Non-indexable signatures degrade
/// to the list behavior.
///
/// The equality table is flat: open addressing with linear probing over
/// (key hash, bucket index) slots, so a probe compares hashes in one
/// array and touches a bucket only on a hash match. A bucket is the
/// triggerID set of one key; the key itself is its first entry's
/// constants, compared with Value equality (numerics across int and
/// float, as organization 1 compares them). Probes arrive hashed and
/// read the token's values in place, so matching allocates nothing.
class MemoryIndexOrganization : public ConstantSetOrganization {
 public:
  explicit MemoryIndexOrganization(const SignatureContext* ctx) : ctx_(ctx) {}

  OrgType type() const override { return OrgType::kMemoryIndex; }
  Status Insert(const PredicateEntry& entry) override;
  Status Remove(ExprId expr_id) override;
  Status Match(const Probe& probe,
               const std::function<void(const PredicateEntry&)>& fn)
      const override;
  Status ForEach(const std::function<void(const PredicateEntry&)>& fn)
      const override;
  size_t size() const override { return size_; }

  /// Number of distinct constant keys (size of the constant set proper);
  /// exposed for the Figure-4 common-sub-expression experiments.
  size_t num_distinct_constants() const {
    return buckets_.size() - free_buckets_.size();
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  struct Slot {
    uint64_t hash = 0;
    uint32_t bucket = kEmptySlot;
  };

  /// Slot holding the bucket whose key `same_key` accepts, or the empty
  /// slot ending its probe sequence.
  template <typename SameKey>
  size_t FindSlot(uint64_t hash, SameKey same_key) const;
  size_t HomeSlot(uint64_t hash) const;
  void Grow();
  void EraseSlot(size_t slot);

  const SignatureContext* ctx_;
  size_t size_ = 0;

  // Equality: the slot table (power-of-two size, at most 3/4 full), the
  // buckets it points into (an emptied bucket joins free_buckets_ for
  // reuse) and each entry's bucket for removal.
  std::vector<Slot> slots_;
  int slot_shift_ = 0;  // 64 - log2(slots_.size())
  std::vector<std::vector<PredicateEntry>> buckets_;
  std::vector<uint32_t> free_buckets_;
  std::unordered_map<ExprId, uint32_t> bucket_of_;

  // Range: stabbing index + payload by exprID.
  IntervalIndex intervals_;
  std::unordered_map<ExprId, PredicateEntry> by_id_;

  // Non-indexable fallback.
  std::vector<PredicateEntry> plain_;
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_ORG_MEMORY_H_
