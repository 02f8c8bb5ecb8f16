#ifndef TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_
#define TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_

#include <cstdint>
#include <vector>

#include "types/tuple.h"

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

/// What the predicate index reports for a matched token (§5.4): enough to
/// pin the trigger and pass the token to its network node.
struct PredicateMatch {
  TriggerId trigger_id = 0;
  ExprId expr_id = 0;
  NetworkNodeId next_node = 0;
};

/// The probe derived from a token for one signature: the token's values
/// for the signature's equality attributes, and/or the value of its range
/// attribute.
struct Probe {
  std::vector<Value> eq_key;
  Value range_value;
  bool has_range_value = false;
};

}  // namespace tman

#endif  // TRIGGERMAN_PREDINDEX_PREDICATE_ENTRY_H_
