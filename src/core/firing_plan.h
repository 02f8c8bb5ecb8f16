#ifndef TRIGGERMAN_CORE_FIRING_PLAN_H_
#define TRIGGERMAN_CORE_FIRING_PLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aggregates.h"
#include "expr/compile.h"
#include "network/alpha_memory.h"
#include "parser/ast.h"
#include "predindex/predicate_entry.h"
#include "types/schema.h"
#include "types/update_descriptor.h"

namespace tman {

struct TriggerRuntime;

/// One firing as its action sees it. A view: every pointer must outlive
/// the call it is passed to.
struct ActionContext {
  /// One bound tuple per tuple variable, aligned with ActionTemplate::vars
  /// (the condition-graph nodes).
  const Tuple* const* bindings = nullptr;
  /// The token that caused the firing (for :OLD references).
  const UpdateDescriptor* token = nullptr;
  /// The node where the token arrived.
  NetworkNodeId arrival_node = 0;
  /// An aggregate group firing's aggregate values (null otherwise).
  const std::vector<Value>* aggregates = nullptr;
};

/// One tuple variable of an action's binding layout.
struct ActionVar {
  std::string var;     // tuple variable (lowercase)
  std::string source;  // its data source
  Schema schema;
};

/// The action of every trigger with one action signature, generalized
/// the way selection predicates are (§5): the `raise event` arguments
/// with each literal replaced by a placeholder, so `S(t.id, 17)` and
/// `S(t.id, 42)` share `S(t.id, CONSTANT_1)`. Placeholder numbering is
/// the parameter vector of an evaluation: an aggregate trigger's k
/// aggregate values come first (CONSTANT_1..k, from its aggregate
/// shape), then the trigger's own constants. Each argument is
/// compiled once; immutable and shared, so any thread may evaluate it.
struct ActionTemplate {
  ActionKind kind = ActionKind::kRaiseEvent;
  /// Binding layout, aligned with the condition-graph nodes.
  std::vector<ActionVar> vars;
  /// execSQL: the statement, :NEW/:OLD macros unexpanded.
  std::string sql;
  /// raise event: the event name and generalized arguments.
  std::string event_name;
  std::vector<ExprPtr> args;
  /// One program per argument over `vars`, placeholders as parameters;
  /// null where the compiler refused (the interpreter then evaluates the
  /// argument with its placeholders bound).
  std::vector<std::shared_ptr<const CompiledPredicate>> programs;

  /// Argument `i` over one tuple per var and the parameter vector.
  /// Values and errors equal EvalExpr of the argument with `params`
  /// bound into it.
  Result<Value> EvalArg(size_t i, const Tuple* const* tuples,
                        const std::vector<Value>& params) const;
};

/// The state a trigger's tokens change, held by its firing plan so the
/// maintenance pass reaches it without the trigger cache (§5.4): one
/// shared stored alpha memory per stored node of a join, or an
/// aggregate's slot in its shared aggregate shape. Both outlive cache
/// eviction; a reopen starts them empty.
struct TriggerState {
  /// Aligned with the condition-graph nodes; a virtual node's memory is
  /// null.
  std::vector<AlphaMemoryRef> memories;
  /// An aggregate trigger's group state (shape null otherwise).
  AggregateRef aggregate;
  /// The sources of the stored nodes, one entry per node. Each counts
  /// toward TriggerDirectory::NeedsMaintenance and HasStoredMemories
  /// while the trigger is installed, as an aggregate's shape source
  /// counts toward NeedsMaintenance.
  std::vector<DataSourceId> sources;

  /// The memory that tokens matched at `node` maintain; null for a
  /// virtual node.
  AlphaMemory* memory(NetworkNodeId node) const {
    return node < memories.size() ? memories[node].memory.get() : nullptr;
  }
};

/// What a trigger needs to fire once the predicate index has matched it
/// (§5.4): resident for the trigger's lifetime, immutable, and published
/// in its TriggerDirectory slot, so the fire pass reads it without a lock
/// and without the trigger cache.
struct FiringPlan : std::enable_shared_from_this<FiringPlan> {
  std::string name;  // lowercase
  std::shared_ptr<const ActionTemplate> action;
  /// What this trigger's tokens change: its shared stored memories or its
  /// aggregate state. Null for a trigger that keeps none (a selection
  /// trigger, or joins over local tables only).
  std::unique_ptr<const TriggerState> state;
  /// Aggregate values a firing supplies ahead of `constants`.
  uint32_t num_aggregates = 0;
  /// True when a firing needs the trigger's A-TREAT network: join
  /// conditions over several tuple variables, or catch-all conjuncts.
  /// Otherwise the predicate index decided the whole condition and a
  /// match fires straight from the plan.
  bool network = false;
  /// This trigger's constants of the action signature.
  std::vector<Value> constants;

  /// Evaluates every `raise event` argument in order; the first error
  /// stops it.
  Status EvalArgs(const ActionContext& ctx, std::vector<Value>* out) const;
};

/// Builds firing plans, interning their action templates by action
/// signature: the action kind, event name or SQL text, generalized
/// arguments, and the binding layout. Thread-safe.
class ActionTemplates {
 public:
  /// The plan of an installed trigger, holding `state` (may be null). An
  /// aggregate trigger passes its extracted clauses, whose action
  /// arguments replace the command's.
  std::shared_ptr<const FiringPlan> MakePlan(
      const TriggerRuntime& trigger,
      std::unique_ptr<TriggerState> state = nullptr,
      const AggregateClauses* aggregate = nullptr);

  /// Templates some live plan still uses.
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<uint64_t, std::weak_ptr<const ActionTemplate>>
      by_signature_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_FIRING_PLAN_H_
