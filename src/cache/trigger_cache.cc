#include "cache/trigger_cache.h"

#include <algorithm>
#include <mutex>

#include "util/hash.h"

namespace tman {

TriggerCache::TriggerCache(size_t capacity, TriggerLoader loader,
                           uint32_t num_shards)
    : capacity_(capacity == 0 ? 1 : capacity), loader_(std::move(loader)) {
  if (num_shards == 0) {
    num_shards = static_cast<uint32_t>(
        std::clamp<size_t>(capacity_ / 1024, 1, 16));
  }
  // Never run more shards than capacity: every shard must hold at least
  // one description.
  num_shards = static_cast<uint32_t>(
      std::min<size_t>(num_shards, capacity_));
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TriggerCache::Shard& TriggerCache::ShardFor(TriggerId id) const {
  return *shards_[MixInt(static_cast<uint64_t>(id)) % shards_.size()];
}

Result<TriggerHandle> TriggerCache::Pin(TriggerId id) {
  Shard& shard = ShardFor(id);
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.slots.find(id);
    if (it != shard.slots.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      // The deferred "LRU touch": no list splice, no exclusive lock —
      // the CLOCK hand reads this bit at eviction time.
      it->second.referenced.store(true, std::memory_order_relaxed);
      return it->second.handle;
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Load outside any lock: catalog loads parse trigger text and may do
  // I/O; concurrent pins of different triggers must not serialize on it.
  auto loaded = loader_(id);
  if (!loaded.ok()) {
    shard.loads_failed.fetch_add(1, std::memory_order_relaxed);
    return loaded.status();
  }
  std::unique_lock lock(shard.mutex);
  auto it = shard.slots.find(id);
  if (it != shard.slots.end()) {
    // Another thread raced the load; keep the resident copy.
    it->second.referenced.store(true, std::memory_order_relaxed);
    return it->second.handle;
  }
  InsertLocked(shard, id, *loaded);
  return *loaded;
}

void TriggerCache::Put(TriggerId id, TriggerHandle handle) {
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mutex);
  auto it = shard.slots.find(id);
  if (it != shard.slots.end()) {
    it->second.handle = std::move(handle);
    it->second.referenced.store(true, std::memory_order_relaxed);
    return;
  }
  InsertLocked(shard, id, std::move(handle));
}

void TriggerCache::InsertLocked(Shard& shard, TriggerId id,
                                TriggerHandle handle) {
  // Capacity is the whole cache's: a shard grows while any room is left,
  // so a cache sized to its population never evicts, however unevenly
  // the ids hash to shards. `resident_` counts reserved entries and never
  // exceeds capacity.
  size_t ring_pos = shard.ring.size();
  if (resident_.fetch_add(1, std::memory_order_relaxed) < capacity_) {
    shard.ring.push_back(id);
  } else {
    // Full: a victim's reservation passes to the new entry.
    resident_.fetch_sub(1, std::memory_order_relaxed);
    if (!shard.ring.empty()) {
      // The new entry takes the victim's place in the ring, and the hand
      // moves past it, so the new entry gets a whole revolution.
      ring_pos = EvictLocked(shard);
      shard.ring[ring_pos] = id;
      shard.hand = (ring_pos + 1) % shard.ring.size();
    } else if (EvictFromOtherShard(shard)) {
      shard.ring.push_back(id);
    } else {
      // This shard is empty and every other one busy: the caller keeps
      // its handle, the cache does not.
      return;
    }
  }
  Slot& slot = shard.slots[id];
  slot.handle = std::move(handle);
  // New entries start unreferenced: only an actual hit earns the second
  // chance, which preserves the scan-resistance of strict LRU for
  // load-once workloads.
  slot.referenced.store(false, std::memory_order_relaxed);
  slot.ring_pos = ring_pos;
}

bool TriggerCache::EvictFromOtherShard(const Shard& self) {
  // try_lock only: this thread holds `self` exclusively, and waiting on a
  // second shard lock could deadlock against a thread doing the reverse.
  for (auto& other : shards_) {
    if (other.get() == &self) continue;
    std::unique_lock lock(other->mutex, std::try_to_lock);
    if (!lock.owns_lock() || other->ring.empty()) continue;
    RemoveFromRingLocked(*other, EvictLocked(*other));
    return true;
  }
  return false;
}

void TriggerCache::RemoveFromRingLocked(Shard& shard, size_t ring_pos) {
  size_t last = shard.ring.size() - 1;
  if (ring_pos != last) {
    TriggerId moved = shard.ring[last];
    shard.ring[ring_pos] = moved;
    shard.slots[moved].ring_pos = ring_pos;
  }
  shard.ring.pop_back();
  if (shard.ring.empty()) {
    shard.hand = 0;
  } else {
    shard.hand %= shard.ring.size();
  }
}

size_t TriggerCache::EvictLocked(Shard& shard) {
  for (;;) {
    TriggerId candidate = shard.ring[shard.hand];
    auto it = shard.slots.find(candidate);
    if (it->second.referenced.load(std::memory_order_relaxed)) {
      // Second chance: clear the bit and advance the hand.
      it->second.referenced.store(false, std::memory_order_relaxed);
      shard.hand = (shard.hand + 1) % shard.ring.size();
      continue;
    }
    shard.slots.erase(it);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    // Pinned handles stay alive through their shared_ptr even after the
    // slot is gone — eviction only drops the cache's reference.
    return shard.hand;
  }
}

void TriggerCache::Invalidate(TriggerId id) {
  Shard& shard = ShardFor(id);
  std::unique_lock lock(shard.mutex);
  auto it = shard.slots.find(id);
  if (it == shard.slots.end()) return;
  RemoveFromRingLocked(shard, it->second.ring_pos);
  shard.slots.erase(it);
  resident_.fetch_sub(1, std::memory_order_relaxed);
}

void TriggerCache::Clear() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    resident_.fetch_sub(shard->slots.size(), std::memory_order_relaxed);
    shard->slots.clear();
    shard->ring.clear();
    shard->hand = 0;
  }
}

size_t TriggerCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->slots.size();
  }
  return total;
}

TriggerCacheStats TriggerCache::stats() const {
  TriggerCacheStats stats;
  for (const auto& shard : shards_) {
    stats.hits += shard->hits.load(std::memory_order_relaxed);
    stats.misses += shard->misses.load(std::memory_order_relaxed);
    stats.evictions += shard->evictions.load(std::memory_order_relaxed);
    stats.loads_failed += shard->loads_failed.load(std::memory_order_relaxed);
  }
  return stats;
}

void TriggerCache::ResetStats() {
  for (auto& shard : shards_) {
    shard->hits.store(0, std::memory_order_relaxed);
    shard->misses.store(0, std::memory_order_relaxed);
    shard->evictions.store(0, std::memory_order_relaxed);
    shard->loads_failed.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tman
