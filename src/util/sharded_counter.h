#ifndef TRIGGERMAN_UTIL_SHARDED_COUNTER_H_
#define TRIGGERMAN_UTIL_SHARDED_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tman {

/// Slot a thread adds its counter increments into. Threads are spread
/// over a small fixed slot space by a round-robin thread-local id, so the
/// always-on runtime statistics of the adaptive layer cost one relaxed
/// fetch_add on an (almost always) uncontended cache line — the batched
/// hot path pays ~nothing for them.
inline size_t CounterSlotOfThisThread() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// A monotonically increasing counter sharded across cache-line-padded
/// relaxed atomics. Writers add to their thread's slot; Read() sums the
/// slots (each load is atomic, so readers never observe a torn value —
/// the sum is a valid count that existed between the first and last slot
/// load). No ordering is implied: this is a statistics counter, not a
/// synchronization primitive.
class ShardedCounter {
 public:
  static constexpr size_t kSlots = 16;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n) {
    slots_[CounterSlotOfThisThread() & (kSlots - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Read() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kSlots];
};

/// Process-wide switch for the adaptive layer's runtime statistics
/// (per-signature probe/fan-out counters, per-stage latency). Defaults
/// to on — the counters are designed to be always-on-cheap — and exists
/// so `bench_adapt` can measure exactly what they cost (the CI gate holds
/// the overhead under 3%).
namespace runtime_stats {

inline std::atomic<bool>& Flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

inline bool enabled() { return Flag().load(std::memory_order_relaxed); }
inline void set_enabled(bool on) {
  Flag().store(on, std::memory_order_relaxed);
}

}  // namespace runtime_stats

}  // namespace tman

#endif  // TRIGGERMAN_UTIL_SHARDED_COUNTER_H_
