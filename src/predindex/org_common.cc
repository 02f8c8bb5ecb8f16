#include "predindex/org_common.h"

#include "types/tuple.h"

namespace tman::predindex_internal {

std::vector<Value> EqKeyOf(const SignatureContext& ctx,
                           const PredicateEntry& entry) {
  std::vector<Value> key;
  key.reserve(ctx.split.eq.size());
  for (const EqConjunct& c : ctx.split.eq) {
    size_t idx = static_cast<size_t>(c.placeholder - 1);
    key.push_back(idx < entry.constants.size() ? entry.constants.at(idx)
                                               : Value::Null());
  }
  return key;
}

IntervalIndex::Interval IntervalOf(const SignatureContext& ctx,
                                   const PredicateEntry& entry) {
  IntervalIndex::Interval iv;
  iv.id = entry.expr_id;
  const RangeSpec& r = ctx.split.range;
  if (r.has_lo) {
    size_t idx = static_cast<size_t>(r.lo_placeholder - 1);
    if (idx < entry.constants.size()) {
      iv.lo = entry.constants.at(idx);
      iv.lo_inclusive = r.lo_inclusive;
    }
  }
  if (r.has_hi) {
    size_t idx = static_cast<size_t>(r.hi_placeholder - 1);
    if (idx < entry.constants.size()) {
      iv.hi = entry.constants.at(idx);
      iv.hi_inclusive = r.hi_inclusive;
    }
  }
  return iv;
}

bool EntryMatchesProbe(const SignatureContext& ctx,
                       const PredicateEntry& entry, const Probe& probe) {
  if (!ctx.split.eq.empty()) {
    std::vector<Value> key = EqKeyOf(ctx, entry);
    if (key.size() != probe.eq_key.size()) return false;
    for (size_t i = 0; i < key.size(); ++i) {
      // NULL constants never match (SQL semantics: x = NULL is unknown).
      if (key[i].is_null() || probe.eq_key[i].is_null()) return false;
      if (key[i] != probe.eq_key[i]) return false;
    }
    return true;
  }
  if (ctx.split.has_range) {
    if (!probe.has_range_value || probe.range_value.is_null()) return false;
    return IntervalOf(ctx, entry).Contains(probe.range_value);
  }
  return true;  // non-indexable: every instance is a candidate
}

std::string EncodeValues(const std::vector<Value>& values) {
  std::string out;
  Tuple(values).Serialize(&out);
  return out;
}

Result<std::vector<Value>> DecodeValues(std::string_view data) {
  size_t pos = 0;
  TMAN_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(data, &pos));
  return std::move(t).values();
}

}  // namespace tman::predindex_internal
