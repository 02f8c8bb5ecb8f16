#ifndef TRIGGERMAN_CORE_TRIGGER_DIRECTORY_H_
#define TRIGGERMAN_CORE_TRIGGER_DIRECTORY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "predindex/predicate_entry.h"
#include "types/update_descriptor.h"
#include "util/status.h"

namespace tman {

struct FiringPlan;

/// The dispatch state the token pipeline reads on every predicate match
/// (§5.4: "predicate index match → pin the trigger → pass the token to
/// its network node"): per trigger, whether it is live and enabled,
/// whether it is an aggregate, its trigger set and its firing plan; per
/// trigger set, whether it is enabled; per data source, how many triggers
/// need the maintenance pass.
///
/// Readers take no lock. Every table is a dense array indexed by id
/// (the catalog hands out trigger and trigger-set ids in order from 1 and
/// never reuses one while the process runs), stored in fixed-size chunks behind a fixed
/// top-level array of atomic chunk pointers, so a chunk never moves once
/// a reader can see it. Writers (DDL) must be serialized by the caller.
class TriggerDirectory {
 public:
  // Slot flags.
  static constexpr uint32_t kLive = 1u << 0;
  static constexpr uint32_t kEnabled = 1u << 1;
  static constexpr uint32_t kAggregate = 1u << 2;  // fires from maintenance

  static constexpr int kChunkBits = 14;
  static constexpr uint64_t kChunkSize = uint64_t{1} << kChunkBits;
  static constexpr uint64_t kMaxChunks = 1024;
  /// Every trigger, trigger-set and data-source id must be below this.
  static constexpr uint64_t kCapacity = kChunkSize * kMaxChunks;

  TriggerDirectory() = default;
  TriggerDirectory(const TriggerDirectory&) = delete;
  TriggerDirectory& operator=(const TriggerDirectory&) = delete;

  // --- readers (lock-free) --------------------------------------------------

  /// One slot read: the trigger's flags, with kEnabled cleared while its
  /// trigger set is disabled. 0 for an id that is not (or no longer) live.
  uint32_t Flags(TriggerId id) const {
    const Slot* slot = slots_.Find(id);
    if (slot == nullptr) return 0;
    uint32_t flags = slot->flags.load(std::memory_order_acquire);
    if ((flags & kEnabled) != 0) {
      const std::atomic<bool>* set_off =
          set_disabled_.Find(slot->ts_id.load(std::memory_order_relaxed));
      if (set_off != nullptr && set_off->load(std::memory_order_relaxed)) {
        flags &= ~kEnabled;
      }
    }
    return flags;
  }

  /// True when a fire-pass match of this trigger should fire it: live,
  /// enabled (trigger and set) and not an aggregate (aggregates fire from
  /// the maintenance pass).
  static bool Fires(uint32_t flags) {
    return (flags & (kLive | kEnabled | kAggregate)) == (kLive | kEnabled);
  }

  /// The trigger's firing plan; null once Remove ran. The plan stays
  /// valid while the caller holds the predicate-index stripe lock under
  /// which one of the trigger's predicates matched: its owner frees it
  /// only after RemovePredicate took every such stripe exclusively.
  const FiringPlan* Plan(TriggerId id) const {
    const Slot* slot = slots_.Find(id);
    return slot == nullptr ? nullptr
                           : slot->plan.load(std::memory_order_acquire);
  }

  /// True when some live trigger on `source` needs the maintenance pass.
  bool NeedsMaintenance(DataSourceId source) const {
    return Positive(maintained_, source);
  }

  /// True when the maintenance pass of a `source` token changes stored
  /// alpha memories, which a later token's fire pass may read.
  bool HasStoredMemories(DataSourceId source) const {
    return Positive(stored_, source);
  }

  // --- writers (serialized by the caller) -----------------------------------

  /// Publishes a live, enabled trigger and its firing plan. `kind` is
  /// kAggregate or 0; each entry of the plan's state `sources` counts
  /// once toward NeedsMaintenance and HasStoredMemories, and an
  /// aggregate's source once toward NeedsMaintenance. Changes nothing
  /// when an id is out of range.
  Status Install(TriggerId id, uint64_t ts_id, uint32_t kind,
                 std::shared_ptr<const FiringPlan> plan = nullptr);

  /// Stops dispatch of `id`, takes back its plan's maintenance counts,
  /// and returns the flags it had (0 if not live). The plan leaves the
  /// slot into `plan`, whose holder keeps it until no fire pass can still
  /// read it (see Plan); without `plan` it is freed at once.
  uint32_t Remove(TriggerId id,
                  std::shared_ptr<const FiringPlan>* plan = nullptr);

  void SetEnabled(TriggerId id, bool enabled);
  Status SetSetEnabled(uint64_t ts_id, bool enabled);

 private:
  struct Slot {
    std::atomic<uint32_t> flags{0};
    std::atomic<uint32_t> ts_id{0};
    std::atomic<const FiringPlan*> plan{nullptr};  // owner.get() or null
    std::shared_ptr<const FiringPlan> owner;       // writers only
  };

  /// Dense id → T table in chunks that, once published, never move.
  template <typename T>
  class ChunkedTable {
   public:
    ChunkedTable() = default;
    ~ChunkedTable() {
      for (std::atomic<T*>& chunk : chunks_) {
        delete[] chunk.load(std::memory_order_relaxed);
      }
    }
    ChunkedTable(const ChunkedTable&) = delete;
    ChunkedTable& operator=(const ChunkedTable&) = delete;

    /// nullptr while the id's chunk does not exist (or it is out of range).
    const T* Find(uint64_t id) const {
      if (id >= kCapacity) return nullptr;
      const T* chunk =
          chunks_[id >> kChunkBits].load(std::memory_order_acquire);
      return chunk == nullptr ? nullptr : &chunk[id & (kChunkSize - 1)];
    }

    /// Creates the id's chunk if needed (writers only).
    T* Ensure(uint64_t id) {
      if (id >= kCapacity) return nullptr;
      std::atomic<T*>& slot = chunks_[id >> kChunkBits];
      T* chunk = slot.load(std::memory_order_relaxed);
      if (chunk == nullptr) {
        chunk = new T[kChunkSize]();
        slot.store(chunk, std::memory_order_release);
      }
      return &chunk[id & (kChunkSize - 1)];
    }

    T* FindMutable(uint64_t id) { return const_cast<T*>(Find(id)); }

   private:
    std::array<std::atomic<T*>, kMaxChunks> chunks_{};
  };

  using Counts = ChunkedTable<std::atomic<uint32_t>>;

  static bool Positive(const Counts& counts, DataSourceId source) {
    const std::atomic<uint32_t>* count = counts.Find(source);
    return count != nullptr && count->load(std::memory_order_relaxed) > 0;
  }

  /// Adds `delta` (+1 or -1, never below 0) to the counts of the plan's
  /// maintained sources.
  void CountSources(const FiringPlan& plan, int delta);

  ChunkedTable<Slot> slots_;
  ChunkedTable<std::atomic<bool>> set_disabled_;  // zero = enabled
  Counts maintained_;
  Counts stored_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_TRIGGER_DIRECTORY_H_
