#include "predindex/org_common.h"

#include "types/tuple.h"

namespace tman::predindex_internal {

const Value& EqConstantOf(const SignatureContext& ctx,
                          const PredicateEntry& entry, size_t i) {
  static const Value kNull;
  size_t idx = static_cast<size_t>(ctx.split.eq[i].placeholder - 1);
  return idx < entry.constants.size() ? entry.constants.at(idx) : kNull;
}

uint64_t EqKeyHash(const SignatureContext& ctx, const PredicateEntry& entry) {
  return HashValuesAt(ctx.split.eq.size(), [&](size_t i) -> const Value& {
    return EqConstantOf(ctx, entry, i);
  });
}

bool EqKeyMatches(const SignatureContext& ctx, const PredicateEntry& entry,
                  const Probe& probe) {
  if (probe.eq_size() != ctx.split.eq.size()) return false;
  for (size_t i = 0; i < ctx.split.eq.size(); ++i) {
    const Value& key = EqConstantOf(ctx, entry, i);
    const Value& v = probe.eq_value(i);
    if (key.is_null() || v.is_null() || key != v) return false;
  }
  return true;
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
  if (!ctx.split.eq.empty()) return EqKeyMatches(ctx, entry, probe);
  if (ctx.split.has_range) {
    if (probe.range_value == nullptr || probe.range_value->is_null()) {
      return false;
    }
    return IntervalOf(ctx, entry).Contains(*probe.range_value);
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
