#ifndef TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_
#define TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_

#include <array>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "predindex/predicate_entry.h"
#include "types/tuple.h"

namespace tman {

/// One row of a stored alpha memory. Immutable once inserted: probes
/// visit it through a shared pointer, never a copy.
struct AlphaRow {
  Tuple tuple;
  /// Insertion sequence within its memory, from 0. A stored node sees
  /// the rows at or after the sequence it attached at.
  uint64_t seq = 0;
};

/// The rows a probe found, held by pointer so a concurrent Remove cannot
/// free one while the caller visits it. The first few live inline, so a
/// probe that finds no row allocates nothing and one that finds a handful
/// allocates only its rows' reference counts.
class RowSnapshot {
 public:
  void push_back(std::shared_ptr<const AlphaRow> row) {
    if (size_ < kInline) {
      inline_[size_] = std::move(row);
    } else {
      overflow_.push_back(std::move(row));
    }
    ++size_;
  }
  size_t size() const { return size_; }
  const AlphaRow& operator[](size_t i) const {
    return i < kInline ? *inline_[i] : *overflow_[i - kInline];
  }

 private:
  static constexpr size_t kInline = 8;
  std::array<std::shared_ptr<const AlphaRow>, kInline> inline_;
  std::vector<std::shared_ptr<const AlphaRow>> overflow_;
  size_t size_ = 0;
};

/// A stored alpha memory of an A-TREAT network (§5.4): the rows of one
/// data source that currently satisfy one selection predicate. The engine
/// keeps one per distinct selection (AlphaMemoryRegistry) and every
/// stored node with that selection shares it. Duplicates are kept: each
/// insert is its own row. Supports equality probes on a field through
/// hash indexes, added by the networks that probe that field.
///
/// Thread-safe: drivers insert and remove under the exclusive lock while
/// others probe under the shared one; a probe copies row pointers out and
/// visits them after the lock is released, so a visitor may probe other
/// memories (or this one) and run actions.
class AlphaMemory {
 public:
  AlphaMemory() = default;

  AlphaMemory(const AlphaMemory&) = delete;
  AlphaMemory& operator=(const AlphaMemory&) = delete;

  void Insert(const Tuple& tuple);

  /// Removes the newest row equal to `tuple`. Returns false if absent.
  /// Newest first keeps every attached node's view exact: a node that
  /// attached later sees a suffix of the equal rows, so it loses one
  /// exactly when it holds one, as its own private memory would.
  bool Remove(const Tuple& tuple);

  /// The sequence the next insert gets: a node attaching now sees the
  /// rows at or after it.
  uint64_t next_seq() const;

  /// Indexes `field` for SnapshotEqual (a no-op if already indexed).
  void AddIndex(size_t field);

  /// Copies out pointers to the rows with seq >= `since`, in slot order.
  void Snapshot(uint64_t since, RowSnapshot* out) const;

  /// Like Snapshot, restricted to rows whose `field` equals `value`; the
  /// field is indexed first if no network asked for it.
  void SnapshotEqual(size_t field, const Value& value, uint64_t since,
                     RowSnapshot* out) const;

  /// Live rows (every attached node's view together).
  size_t size() const;

  /// Live rows with seq >= `since`: one attached node's view.
  size_t CountSince(uint64_t since) const;

 private:
  using Index = std::unordered_multimap<uint64_t, size_t>;

  // The helpers below require mutex_ held.
  const Index* FindIndex(size_t field) const;
  void IndexSlot(Index* index, size_t field, size_t slot) const;
  void BuildIndex(size_t field) const;  // takes mutex_ itself

  mutable std::shared_mutex mutex_;
  std::vector<std::shared_ptr<const AlphaRow>> slots_;  // null: free
  std::vector<size_t> free_;
  size_t live_ = 0;
  uint64_t next_seq_ = 0;
  // (field, value hash -> slot indices); few fields per memory. Derived
  // from slots_, so a probe of an unindexed field may add one.
  mutable std::vector<std::pair<size_t, Index>> indexes_;
};

/// One stored node's view of a shared memory: the rows inserted at or
/// after `since`.
struct AlphaMemoryRef {
  std::shared_ptr<AlphaMemory> memory;
  uint64_t since = 0;
};

/// What makes two stored nodes' selections the same: the data source,
/// the predicate index's signature id and the predicate's constants (the
/// identity AddPredicate returns; signatures canonicalize the tuple
/// variable), and the condition partition that maintains the predicate.
struct AlphaMemoryKey {
  DataSourceId source = 0;
  uint64_t sig_id = 0;
  uint32_t partition = 0;
  std::vector<Value> constants;
};

/// Sizes of the shared alpha memories, for stats.
struct AlphaMemoryStats {
  uint64_t memories = 0;  // distinct memories held
  uint64_t rows = 0;      // rows stored across them
  uint64_t nodes = 0;     // stored nodes attached to them
};

/// The engine's stored alpha memories, one per distinct AlphaMemoryKey,
/// reference-counted by the stored nodes attached to them. Thread-safe.
class AlphaMemoryRegistry {
 public:
  AlphaMemoryRegistry() = default;
  AlphaMemoryRegistry(const AlphaMemoryRegistry&) = delete;
  AlphaMemoryRegistry& operator=(const AlphaMemoryRegistry&) = delete;

  /// Attaches one stored node to the memory of `key`, creating the memory
  /// on first use. The node sees only rows inserted from now on.
  AlphaMemoryRef Attach(const AlphaMemoryKey& key);

  /// Detaches one stored node. The last detach drops the memory from the
  /// registry; it is freed once no network still holds it.
  void Detach(const AlphaMemoryRef& ref);

  AlphaMemoryStats stats() const;

 private:
  struct Entry {
    AlphaMemoryKey key;
    uint64_t hash = 0;
    std::shared_ptr<AlphaMemory> memory;
    uint32_t nodes = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_multimap<uint64_t, const AlphaMemory*> by_key_;
  std::unordered_map<const AlphaMemory*, Entry> entries_;
};

}  // namespace tman

#endif  // TRIGGERMAN_NETWORK_ALPHA_MEMORY_H_
