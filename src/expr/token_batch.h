#ifndef TRIGGERMAN_EXPR_TOKEN_BATCH_H_
#define TRIGGERMAN_EXPR_TOKEN_BATCH_H_

#include <cstddef>
#include <vector>

#include "types/tuple.h"

namespace tman {

/// Default number of tokens staged per batch through the compiled hot
/// path. 64 keeps a whole batch's per-slot tuple-pointer columns (and the
/// VM's gathered int64/double operand arrays) inside L1 while amortizing
/// one bytecode dispatch, one probe-key pass, and one queue-lock
/// acquisition over the batch.
inline constexpr size_t kDefaultTokenBatchSize = 64;

/// A small columnar batch of tokens: the unit of work the batched
/// evaluation pipeline threads through the bytecode VM and the predicate
/// index in place of a single `Tuple*`.
///
/// Layout is column-major over binding slots: slot(s) is a contiguous
/// `const Tuple* const*` with one entry per lane, so a kField operand
/// column in CompiledPredicate::EvalBatch is a single pointer array walk.
/// Lane i of every slot together forms one token's bindings — exactly the
/// `tuples` array the scalar EvalValue entry takes. The batch borrows the
/// tuples; callers keep them alive for the duration of the evaluation,
/// the same contract as the scalar entry points.
class TokenBatch {
 public:
  explicit TokenBatch(size_t num_slots = 1) { Reset(num_slots); }

  /// Drops all lanes and re-shapes the batch to `num_slots` columns.
  void Reset(size_t num_slots) {
    cols_.resize(num_slots == 0 ? 1 : num_slots);
    Clear();
  }

  /// Drops all lanes, keeping the slot count and column capacity.
  void Clear() {
    for (auto& col : cols_) col.clear();
  }

  size_t num_slots() const { return cols_.size(); }
  size_t size() const { return cols_[0].size(); }
  bool empty() const { return cols_[0].empty(); }

  /// Appends one token: `slot_tuples[s]` binds slot s. Returns the lane.
  size_t Append(const Tuple* const* slot_tuples) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(slot_tuples[s]);
    }
    return size() - 1;
  }

  /// Single-slot convenience (selection predicates).
  size_t Append(const Tuple* t) {
    cols_[0].push_back(t);
    for (size_t s = 1; s < cols_.size(); ++s) cols_[s].push_back(nullptr);
    return size() - 1;
  }

  /// Two-slot convenience (join conjuncts: [prefix, candidate]).
  size_t Append(const Tuple* a, const Tuple* b) {
    cols_[0].push_back(a);
    cols_[1].push_back(b);
    for (size_t s = 2; s < cols_.size(); ++s) cols_[s].push_back(nullptr);
    return size() - 1;
  }

  /// Contiguous per-lane tuple pointers for one slot.
  const Tuple* const* slot(size_t s) const { return cols_[s].data(); }

  const Tuple* at(size_t s, size_t lane) const { return cols_[s][lane]; }

 private:
  std::vector<std::vector<const Tuple*>> cols_;
};

}  // namespace tman

#endif  // TRIGGERMAN_EXPR_TOKEN_BATCH_H_
