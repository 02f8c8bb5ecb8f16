#ifndef TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_
#define TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_

#include <cstdint>
#include <vector>

#include "types/tuple.h"
#include "types/update_descriptor.h"

namespace tman {

/// Unique id of one selection-predicate instance (the exprID column of a
/// constant table).
using ExprId = uint64_t;

/// Unique id of a trigger.
using TriggerId = uint64_t;

/// Id of an A-TREAT network node within a trigger (the nextNetworkNode
/// column): the node a token is passed to after matching the predicate.
using NetworkNodeId = uint32_t;

/// The in-memory image of one constant-table row (§5.1): which trigger the
/// predicate belongs to, where its token goes next, and the extracted
/// constants. The rest of the predicate is not stored per row: the
/// signature's one compiled rest program reads the constants as its
/// second binding slot (see SignatureIndexEntry).
struct PredicateEntry {
  ExprId expr_id = 0;
  TriggerId trigger_id = 0;
  NetworkNodeId next_node = 0;

  /// All m constants of the predicate, numbered as in the signature:
  /// field i-1 holds CONSTANT_i.
  Tuple constants;
};

/// The condition partition (of `num_partitions`) that processes the
/// predicate `expr_id`: round-robin by exprID, as in Figure 5's
/// partitioned triggerID sets.
inline uint32_t PartitionOf(ExprId expr_id, uint32_t num_partitions) {
  return num_partitions <= 1
             ? 0
             : static_cast<uint32_t>(expr_id % num_partitions);
}

/// What the predicate index reports for a matched token (§5.4): enough to
/// pin the trigger and pass the token to its network node.
struct PredicateMatch {
  TriggerId trigger_id = 0;
  ExprId expr_id = 0;
  NetworkNodeId next_node = 0;
};

/// HashValues of `tuple`'s values at `fields`, read in place.
inline uint64_t FieldsHash(const Tuple& tuple,
                           const std::vector<size_t>& fields) {
  return HashValuesAt(fields.size(), [&](size_t i) -> const Value& {
    return tuple.at(fields[i]);
  });
}

/// The probe derived from a token for one signature. Nothing is copied
/// out of the token: the equality values are read in place from its
/// tuple at the signature's equality fields, and `eq_hash` is their key
/// hash (FieldsHash).
struct Probe {
  const Tuple* tuple = nullptr;
  const std::vector<size_t>* eq_fields = nullptr;  // null: no equality part
  uint64_t eq_hash = 0;
  const Value* range_value = nullptr;  // null: no range value

  /// Probe of `tuple` over `eq_fields` (each < tuple.size()) and the
  /// optional range field (negative: none).
  static Probe Of(const Tuple& tuple, const std::vector<size_t>& eq_fields,
                  int range_field) {
    Probe p;
    p.tuple = &tuple;
    p.eq_fields = &eq_fields;
    p.eq_hash = FieldsHash(tuple, eq_fields);
    if (range_field >= 0) {
      p.range_value = &tuple.at(static_cast<size_t>(range_field));
    }
    return p;
  }

  size_t eq_size() const {
    return eq_fields == nullptr ? 0 : eq_fields->size();
  }
  const Value& eq_value(size_t i) const { return tuple->at((*eq_fields)[i]); }
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_
