#ifndef TRIGGERMAN_CACHE_TRIGGER_CACHE_H_
#define TRIGGERMAN_CACHE_TRIGGER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "predindex/predicate_entry.h"
#include "util/result.h"

namespace tman {

struct TriggerRuntime;

/// Shared handle to a cached trigger description. Holding the handle is
/// the "pin": the description cannot be destroyed while any handle is
/// live, even if the cache evicts its slot (§5.4 — the pin operation is
/// analogous to a buffer-pool pin).
using TriggerHandle = std::shared_ptr<const TriggerRuntime>;

/// Loads a trigger description from the on-disk trigger catalog (parse the
/// stored text, rebuild syntax tree + network skeleton). Installed by the
/// TriggerManager.
using TriggerLoader =
    std::function<Result<TriggerHandle>(TriggerId trigger_id)>;

struct TriggerCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t loads_failed = 0;
};

/// The trigger cache (§5.1): complete descriptions of recently accessed
/// triggers, kept in main memory with second-chance (CLOCK) replacement.
/// Sized in number of triggers (the paper's arithmetic: ~4 KB per
/// description, 16,384 descriptions in a 64 MB cache).
///
/// Scaling: the cache is sharded by trigger id, each shard holding its
/// own map + CLOCK ring under a shard shared_mutex. A hit — by far the
/// dominant operation once the working set is resident — takes only the
/// shard's *read* lock and records recency by setting an atomic
/// reference bit, so concurrent pins of hot triggers serialize on
/// nothing: no global mutex, no LRU list splice. Eviction runs the CLOCK
/// hand under the shard's write lock; a set reference bit buys a slot a
/// second chance (the deferred equivalent of an LRU touch). The capacity
/// bounds the whole cache, not each shard: nothing is evicted until the
/// cache as a whole is full, and then the inserting shard evicts.
class TriggerCache {
 public:
  /// `num_shards` = 0 scales the shard count with capacity (one shard
  /// per 1024 descriptions, clamped to [1, 16]), so small caches — and
  /// the deterministic unit tests that size them in single digits —
  /// behave as one CLOCK ring.
  TriggerCache(size_t capacity, TriggerLoader loader, uint32_t num_shards = 0);

  TriggerCache(const TriggerCache&) = delete;
  TriggerCache& operator=(const TriggerCache&) = delete;

  /// Pins a trigger: returns the cached description, loading it through
  /// the catalog loader on a miss (possibly evicting a second-chance
  /// victim).
  Result<TriggerHandle> Pin(TriggerId id);

  /// Inserts/refreshes a description directly (used right after create
  /// trigger, so the first firing does not re-load it).
  void Put(TriggerId id, TriggerHandle handle);

  /// Drops a trigger from the cache (drop trigger / disable).
  void Invalidate(TriggerId id);

  /// Drops everything (e.g. after bulk catalog changes).
  void Clear();

  size_t capacity() const { return capacity_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  size_t size() const;
  TriggerCacheStats stats() const;
  void ResetStats();

 private:
  struct Slot {
    TriggerHandle handle;
    /// Set on every hit (under the shard's shared lock); cleared by the
    /// CLOCK hand. Replaces the LRU touch with a race-free atomic store.
    std::atomic<bool> referenced{false};
    /// Position in the shard's CLOCK ring (maintained under the shard's
    /// exclusive lock).
    size_t ring_pos = 0;
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<TriggerId, Slot> slots;
    std::vector<TriggerId> ring;  // CLOCK ring over resident ids
    size_t hand = 0;

    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> loads_failed{0};
  };

  Shard& ShardFor(TriggerId id) const;

  /// Inserts `handle` into `shard`. When the whole cache is full, the
  /// shard first evicts its CLOCK hand's victim and gives its ring
  /// position to the new entry (an empty shard evicts from another).
  /// Requires the shard's exclusive lock (as do the two below).
  void InsertLocked(Shard& shard, TriggerId id, TriggerHandle handle);
  /// Evicts one entry of a shard other than `self` whose lock is free at
  /// once; false when there is none.
  bool EvictFromOtherShard(const Shard& self);
  /// Runs the CLOCK hand to an unreferenced entry, erases it, and returns
  /// its ring position (the hand stays on it).
  size_t EvictLocked(Shard& shard);
  void RemoveFromRingLocked(Shard& shard, size_t ring_pos);

  const size_t capacity_;
  std::atomic<size_t> resident_{0};  // entries held, over all shards
  TriggerLoader loader_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CACHE_TRIGGER_CACHE_H_
