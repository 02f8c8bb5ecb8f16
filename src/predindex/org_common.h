#ifndef TRIGGERMAN_PREDINDEX_ORG_COMMON_H_
#define TRIGGERMAN_PREDINDEX_ORG_COMMON_H_

#include <optional>
#include <string>
#include <vector>

#include "predindex/interval_index.h"
#include "predindex/organization.h"

namespace tman::predindex_internal {

/// The entry's constant for the signature's i-th equality placeholder
/// (NULL when the entry has fewer constants).
const Value& EqConstantOf(const SignatureContext& ctx,
                          const PredicateEntry& entry, size_t i);

/// Key hash of an entry's equality constants: the same FieldsHash a probe
/// carrying equal values has (Value::Hash agrees with Value equality, so
/// int 3 and float 3.0 hash alike).
uint64_t EqKeyHash(const SignatureContext& ctx, const PredicateEntry& entry);

/// True when the entry's equality constants equal the probe's values
/// under Value equality (numerics compare across int and float). A NULL
/// on either side never matches (SQL: x = NULL is unknown).
bool EqKeyMatches(const SignatureContext& ctx, const PredicateEntry& entry,
                  const Probe& probe);

/// Builds the stabbing interval for a range signature from an entry's
/// constants.
IntervalIndex::Interval IntervalOf(const SignatureContext& ctx,
                                   const PredicateEntry& entry);

/// Full probe check against one entry (equality key / interval /
/// trivially true for non-indexable signatures). This is what a list
/// organization evaluates per element.
bool EntryMatchesProbe(const SignatureContext& ctx,
                       const PredicateEntry& entry, const Probe& probe);

/// Order- and type-preserving binary encoding of a value vector, used as
/// a hash-map key and as constant-table cell content.
std::string EncodeValues(const std::vector<Value>& values);

/// Inverse of EncodeValues.
Result<std::vector<Value>> DecodeValues(std::string_view data);

}  // namespace tman::predindex_internal

#endif  // TRIGGERMAN_PREDINDEX_ORG_COMMON_H_
