#include "predindex/org_memory.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "predindex/org_common.h"

namespace tman {

using predindex_internal::EntryMatchesProbe;
using predindex_internal::EqConstantOf;
using predindex_internal::EqKeyHash;
using predindex_internal::EqKeyMatches;
using predindex_internal::IntervalOf;

// ---------------------------------------------------------------------------
// MemoryListOrganization
// ---------------------------------------------------------------------------

Status MemoryListOrganization::Insert(const PredicateEntry& entry) {
  for (const PredicateEntry& e : entries_) {
    if (e.expr_id == entry.expr_id) {
      return Status::AlreadyExists("expr " + std::to_string(entry.expr_id) +
                                   " already present");
    }
  }
  entries_.push_back(entry);
  return Status::OK();
}

Status MemoryListOrganization::Remove(ExprId expr_id) {
  auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [expr_id](const PredicateEntry& e) { return e.expr_id == expr_id; });
  if (it == entries_.end()) {
    return Status::NotFound("expr " + std::to_string(expr_id) + " not found");
  }
  entries_.erase(it);
  return Status::OK();
}

Status MemoryListOrganization::Match(
    const Probe& probe,
    const std::function<void(const PredicateEntry&)>& fn) const {
  for (const PredicateEntry& e : entries_) {
    if (EntryMatchesProbe(*ctx_, e, probe)) fn(e);
  }
  return Status::OK();
}

Status MemoryListOrganization::ForEach(
    const std::function<void(const PredicateEntry&)>& fn) const {
  for (const PredicateEntry& e : entries_) fn(e);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MemoryIndexOrganization
// ---------------------------------------------------------------------------

namespace {

// Whether two entries of an equality signature share one key. NULL
// constants group together; they never match a probe.
bool SameEqKey(const SignatureContext& ctx, const PredicateEntry& a,
               const PredicateEntry& b) {
  for (size_t i = 0; i < ctx.split.eq.size(); ++i) {
    if (EqConstantOf(ctx, a, i) != EqConstantOf(ctx, b, i)) return false;
  }
  return true;
}

}  // namespace

size_t MemoryIndexOrganization::HomeSlot(uint64_t hash) const {
  // Fibonacci hashing: the top bits of the product spread keys whose
  // hashes differ only in a few bits.
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> slot_shift_);
}

template <typename SameKey>
size_t MemoryIndexOrganization::FindSlot(uint64_t hash,
                                         SameKey same_key) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(hash);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.bucket == kEmptySlot) return i;
    if (slot.hash == hash && same_key(buckets_[slot.bucket].front())) {
      return i;
    }
  }
}

void MemoryIndexOrganization::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? 16 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  slot_shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.bucket == kEmptySlot) continue;
    size_t i = HomeSlot(slot.hash);
    while (slots_[i].bucket != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void MemoryIndexOrganization::EraseSlot(size_t slot) {
  // Backward-shift deletion: pull each later slot of the run into the
  // hole when that keeps it between its home slot and where it was, so
  // no tombstones accumulate.
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t i = (slot + 1) & mask; slots_[i].bucket != kEmptySlot;
       i = (i + 1) & mask) {
    const size_t home = HomeSlot(slots_[i].hash);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
}

Status MemoryIndexOrganization::Insert(const PredicateEntry& entry) {
  if (!ctx_->split.eq.empty()) {
    if (bucket_of_.count(entry.expr_id) > 0) {
      return Status::AlreadyExists("expr " + std::to_string(entry.expr_id) +
                                   " already present");
    }
    if ((num_distinct_constants() + 1) * 4 > slots_.size() * 3) Grow();
    const uint64_t hash = EqKeyHash(*ctx_, entry);
    const size_t i = FindSlot(hash, [&](const PredicateEntry& first) {
      return SameEqKey(*ctx_, first, entry);
    });
    if (slots_[i].bucket == kEmptySlot) {
      uint32_t bucket;
      if (free_buckets_.empty()) {
        bucket = static_cast<uint32_t>(buckets_.size());
        buckets_.emplace_back();
      } else {
        bucket = free_buckets_.back();
        free_buckets_.pop_back();
      }
      slots_[i] = Slot{hash, bucket};
    }
    buckets_[slots_[i].bucket].push_back(entry);
    bucket_of_.emplace(entry.expr_id, slots_[i].bucket);
  } else if (ctx_->split.has_range) {
    if (by_id_.count(entry.expr_id) > 0) {
      return Status::AlreadyExists("expr " + std::to_string(entry.expr_id) +
                                   " already present");
    }
    intervals_.Insert(IntervalOf(*ctx_, entry));
    by_id_[entry.expr_id] = entry;
  } else {
    for (const PredicateEntry& e : plain_) {
      if (e.expr_id == entry.expr_id) {
        return Status::AlreadyExists("expr " + std::to_string(entry.expr_id) +
                                     " already present");
      }
    }
    plain_.push_back(entry);
  }
  ++size_;
  return Status::OK();
}

Status MemoryIndexOrganization::Remove(ExprId expr_id) {
  if (!ctx_->split.eq.empty()) {
    auto it = bucket_of_.find(expr_id);
    if (it == bucket_of_.end()) {
      return Status::NotFound("expr " + std::to_string(expr_id) +
                              " not found");
    }
    const uint32_t bucket = it->second;
    std::vector<PredicateEntry>& entries = buckets_[bucket];
    if (entries.size() == 1) {
      // The key's last entry: its slot and bucket go free.
      const size_t mask = slots_.size() - 1;
      size_t i = HomeSlot(EqKeyHash(*ctx_, entries.front()));
      while (slots_[i].bucket != bucket) i = (i + 1) & mask;
      EraseSlot(i);
      std::vector<PredicateEntry>().swap(entries);
      free_buckets_.push_back(bucket);
    } else {
      entries.erase(std::find_if(
          entries.begin(), entries.end(),
          [expr_id](const PredicateEntry& e) { return e.expr_id == expr_id; }));
    }
    bucket_of_.erase(it);
  } else if (ctx_->split.has_range) {
    auto it = by_id_.find(expr_id);
    if (it == by_id_.end()) {
      return Status::NotFound("expr " + std::to_string(expr_id) +
                              " not found");
    }
    intervals_.Remove(expr_id);
    by_id_.erase(it);
  } else {
    auto it = std::find_if(
        plain_.begin(), plain_.end(),
        [expr_id](const PredicateEntry& e) { return e.expr_id == expr_id; });
    if (it == plain_.end()) {
      return Status::NotFound("expr " + std::to_string(expr_id) +
                              " not found");
    }
    plain_.erase(it);
  }
  --size_;
  return Status::OK();
}

Status MemoryIndexOrganization::Match(
    const Probe& probe,
    const std::function<void(const PredicateEntry&)>& fn) const {
  if (!ctx_->split.eq.empty()) {
    if (slots_.empty() || probe.eq_size() != ctx_->split.eq.size()) {
      return Status::OK();
    }
    for (size_t i = 0; i < probe.eq_size(); ++i) {
      if (probe.eq_value(i).is_null()) return Status::OK();
    }
    assert(probe.eq_hash == FieldsHash(*probe.tuple, *probe.eq_fields));
    const Slot& slot = slots_[FindSlot(
        probe.eq_hash, [&](const PredicateEntry& first) {
          return EqKeyMatches(*ctx_, first, probe);
        })];
    if (slot.bucket != kEmptySlot) {
      for (const PredicateEntry& e : buckets_[slot.bucket]) fn(e);
    }
    return Status::OK();
  }
  if (ctx_->split.has_range) {
    if (probe.range_value == nullptr || probe.range_value->is_null()) {
      return Status::OK();
    }
    intervals_.Stab(*probe.range_value,
                    [this, &fn](const IntervalIndex::Interval& iv) {
                      auto it = by_id_.find(iv.id);
                      if (it != by_id_.end()) fn(it->second);
                    });
    return Status::OK();
  }
  for (const PredicateEntry& e : plain_) fn(e);
  return Status::OK();
}

Status MemoryIndexOrganization::ForEach(
    const std::function<void(const PredicateEntry&)>& fn) const {
  for (const std::vector<PredicateEntry>& bucket : buckets_) {
    for (const PredicateEntry& e : bucket) fn(e);
  }
  for (const auto& [id, e] : by_id_) fn(e);
  for (const PredicateEntry& e : plain_) fn(e);
  return Status::OK();
}

}  // namespace tman
