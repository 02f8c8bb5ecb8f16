#ifndef TRIGGERMAN_CORE_AGGREGATES_H_
#define TRIGGERMAN_CORE_AGGREGATES_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "predindex/predicate_entry.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "util/result.h"

namespace tman {

/// Aggregate functions supported in having-clauses and aggregate-trigger
/// actions.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate call found in a trigger's having clause or action
/// arguments: kind plus argument expression (null for count(*) — spelled
/// count() or count(attr)).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  ExprPtr arg;  // may be null (count with no argument)
};

/// Parses an aggregate function name; NotFound for non-aggregates.
Result<AggKind> AggKindFromName(std::string_view name);

/// An aggregate trigger's having clause and action arguments with each
/// aggregate call replaced by a placeholder: CONSTANT_i stands for
/// `calls[i-1]`. Structurally equal calls share one placeholder.
struct AggregateClauses {
  std::vector<AggSpec> calls;
  ExprPtr having;  // null: every change of a group is true
  std::vector<ExprPtr> action_args;

  static Result<AggregateClauses> Extract(
      const ExprPtr& having, const std::vector<ExprPtr>& action_args);
};

/// What makes aggregate triggers share one AggregateShape: the data
/// source, the condition partition that maintains their predicates, the
/// tuple variable (with its schema) the clauses are written over, the
/// group-by expressions and the aggregate calls. Selection and having
/// constants are per trigger.
struct AggregateShapeKey {
  DataSourceId source = 0;
  uint32_t partition = 0;
  std::string var;
  Schema schema;
  std::vector<ExprPtr> group_by;
  std::vector<AggSpec> calls;
};

/// Incremental group-by/having state of every aggregate trigger with one
/// shape — the paper lists scalable processing of trigger conditions
/// involving aggregates as future work (§9); this applies its idea of
/// evaluating once what many triggers share. Each attached trigger owns a
/// slot; a tuple that passed the selections of several slots has its
/// group key and aggregate arguments evaluated once, probes the shape's
/// group dictionary once and updates those slots under one lock. A slot
/// keeps state only for the groups it holds (a small hash from group id
/// to its cell), so memory follows the groups each trigger holds, not
/// triggers x groups of the shape.
///
/// Semantics, per slot: each tuple is assigned to a group by the group-by
/// expressions (group identity is the type-tagged value encoding of
/// Tuple::Serialize, so Int(1) and Float(1.0) are different groups and a
/// NULL key is a group of its own); aggregates update incrementally
/// (inserts add, deletes remove) and skip NULL arguments; the having
/// condition is evaluated after each change and fires on a false->true
/// transition (edge-triggered). A group is freed once it has no rows and
/// is not true.
///
/// Restrictions (checked where cheap, documented otherwise): one tuple
/// variable; having/action aggregates reference only that variable;
/// non-aggregate column refs in the having clause must be group-by
/// columns (they are evaluated against the arriving tuple, which agrees
/// with the group on exactly those columns). Thread-safe.
class AggregateShape {
 public:
  explicit AggregateShape(AggregateShapeKey key);

  AggregateShape(const AggregateShape&) = delete;
  AggregateShape& operator=(const AggregateShape&) = delete;

  const AggregateShapeKey& key() const { return key_; }
  size_t num_calls() const { return key_.calls.size(); }

  /// Attaches one trigger with the placeholder having clause of its
  /// AggregateClauses (null: always true); it starts with no groups.
  /// Returns its slot.
  uint32_t Attach(const ExprPtr& having);

  /// Frees a slot and its groups. No Apply may still name it.
  void Detach(uint32_t slot);

  /// A group whose having condition one tuple made true.
  struct Firing {
    size_t index;               // into the slots passed to Apply
    std::vector<Value> values;  // aggregate values, aligned with calls
  };

  /// Adds (or removes) one tuple, which passed the selection of each
  /// attached slot in `slots[0..n)`, to those slots' groups, appending a
  /// firing for each slot whose group's having condition turned true.
  /// Removing from a group a slot does not hold changes nothing for it.
  Status Apply(const Tuple& tuple, bool add, const uint32_t* slots, size_t n,
               std::vector<Firing>* firings);

  /// Distinct groups some slot holds.
  size_t num_groups() const;
  /// Groups held by one slot.
  size_t num_groups(uint32_t slot) const;
  /// Attached slots.
  size_t num_slots() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Open addressing with linear probing from a 64-bit hash to a uint32
  /// id, at most 3/4 full; the caller's `match` tells the wanted id from
  /// others under an equal hash. Erasure shifts later entries back, so no
  /// tombstones accumulate.
  class IdTable {
   public:
    template <class Match>
    uint32_t Find(uint64_t hash, Match match) const {
      if (entries_.empty()) return kNone;
      const size_t mask = entries_.size() - 1;
      for (size_t i = Home(hash);; i = (i + 1) & mask) {
        const Entry& e = entries_[i];
        if (e.id == kNone) return kNone;
        if (e.hash == hash && match(e.id)) return e.id;
      }
    }
    void Insert(uint64_t hash, uint32_t id);
    void Erase(uint64_t hash, uint32_t id);
    size_t size() const { return size_; }

   private:
    struct Entry {
      uint64_t hash = 0;
      uint32_t id = kNone;
    };
    size_t Home(uint64_t hash) const;
    void Grow();

    std::vector<Entry> entries_;
    int shift_ = 0;  // 64 - log2(entries_.size())
    size_t size_ = 0;
  };

  struct Counter {
    int64_t count = 0;
    double sum = 0;
  };

  /// One slot's state of one group it holds.
  struct Cell {
    uint32_t group = kNone;  // kNone: free
    bool was_true = false;
    int64_t rows = 0;
    bool live() const { return rows > 0 || was_true; }
  };

  /// One attached trigger. It holds exactly the groups whose cell is
  /// live; their state is pooled by cell (a released cell is reused), so
  /// a slot's memory follows the most groups it has held at once, not the
  /// shape's group count.
  struct Slot {
    bool attached = false;
    ExprPtr having;  // placeholder template; null: always true
    std::shared_ptr<const CompiledPredicate> program;  // null: interpreter
    IdTable held;  // group id (as its own hash) -> cell
    std::vector<Cell> cells;
    std::vector<Counter> counters;                // cell * calls + call
    std::vector<std::multiset<Value>> extremes;  // cell * extremes + e
    std::vector<uint32_t> free_cells;
  };

  struct Group {
    std::vector<Value> key;
    uint64_t hash = 0;
    uint32_t holders = 0;  // slots holding it; 0: free
  };

  // The helpers below require mutex_ held.
  uint32_t FindGroup(uint64_t hash, const Value* key) const;
  uint32_t AddGroup(uint64_t hash, const Value* key);
  void FreeGroup(uint32_t group);
  uint32_t FindCell(const Slot& slot, uint32_t group) const;
  uint32_t HoldGroup(Slot* slot, uint32_t group);
  void ReleaseCell(Slot* slot, uint32_t cell);
  void Update(Slot* slot, uint32_t cell, bool add, const Value* args);
  void CurrentValues(const Slot& slot, uint32_t cell, Value* out) const;
  Result<bool> HavingTrue(const Slot& slot, const Tuple& tuple,
                          const Value* values) const;

  Result<Value> Eval(const std::shared_ptr<const CompiledPredicate>& program,
                     const ExprPtr& expr, const Tuple& tuple) const;

  const AggregateShapeKey key_;
  // Compiled once per shape (null entries fall back to the interpreter).
  std::vector<std::shared_ptr<const CompiledPredicate>> group_by_programs_;
  std::vector<std::shared_ptr<const CompiledPredicate>> arg_programs_;
  // Per call: its index among the min/max calls, or -1.
  std::vector<int> extreme_of_;
  size_t num_extremes_ = 0;

  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t attached_ = 0;
  // The group dictionary (key hash -> group id) and the groups it points
  // into (a freed id is reused).
  IdTable dictionary_;
  std::vector<Group> groups_;
  std::vector<uint32_t> free_groups_;
};

/// One aggregate trigger's place in its shape.
struct AggregateRef {
  std::shared_ptr<AggregateShape> shape;
  uint32_t slot = 0;
};

/// Sizes of the aggregate shapes, for stats.
struct AggregateShapeStats {
  uint64_t shapes = 0;    // distinct shapes held
  uint64_t triggers = 0;  // aggregate triggers attached to them
  uint64_t groups = 0;    // live groups, counted once per shape
};

/// The engine's aggregate shapes, one per distinct AggregateShapeKey,
/// reference-counted by the triggers attached to them. Thread-safe.
class AggregateShapeRegistry {
 public:
  AggregateShapeRegistry() = default;
  AggregateShapeRegistry(const AggregateShapeRegistry&) = delete;
  AggregateShapeRegistry& operator=(const AggregateShapeRegistry&) = delete;

  /// Attaches one trigger to the shape of `key`, creating the shape on
  /// first use.
  AggregateRef Attach(const AggregateShapeKey& key, const ExprPtr& having);

  /// Detaches one trigger; the last detach drops the shape from the
  /// registry. No Apply may still name the slot.
  void Detach(const AggregateRef& ref);

  AggregateShapeStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<uint64_t, std::shared_ptr<AggregateShape>> by_key_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_AGGREGATES_H_
