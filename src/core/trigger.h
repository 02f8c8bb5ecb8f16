#ifndef TRIGGERMAN_CORE_TRIGGER_H_
#define TRIGGERMAN_CORE_TRIGGER_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/condition_graph.h"
#include "network/atreat.h"
#include "parser/ast.h"
#include "predindex/predicate_entry.h"

namespace tman {

/// The complete description of one trigger as kept in the trigger cache
/// (§5.1): identity, parsed syntax tree, condition graph, A-TREAT network
/// skeleton, and the action. Instances are shared immutably through
/// TriggerHandle (the pin). The network's stored memories belong to the
/// engine and the trigger's firing plan, so a reload re-attaches them.
struct TriggerRuntime {
  TriggerId id = 0;
  uint64_t ts_id = 0;
  std::string name;   // lowercase

  CreateTriggerCmd cmd;          // parsed syntax tree
  ConditionGraph graph;          // condition graph (§5.1 step 3)
  std::unique_ptr<ATreatNetwork> network;  // step 4

  /// exprIDs of the selection predicates registered in the predicate
  /// index for this trigger (used by drop trigger).
  std::vector<ExprId> expr_ids;

  bool multi_variable() const { return graph.nodes().size() > 1; }
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_TRIGGER_H_
