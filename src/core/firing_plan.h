#ifndef TRIGGERMAN_CORE_FIRING_PLAN_H_
#define TRIGGERMAN_CORE_FIRING_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/compile.h"
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
/// aggregate values come first (CONSTANT_1..k, from its group-by
/// evaluator), then the trigger's own constants. Each argument is
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

/// What a trigger needs to fire once the predicate index has matched it
/// (§5.4): resident for the trigger's lifetime, immutable, and published
/// in its TriggerDirectory slot, so the fire pass reads it without a lock
/// and without the trigger cache.
struct FiringPlan : std::enable_shared_from_this<FiringPlan> {
  std::string name;  // lowercase
  std::shared_ptr<const ActionTemplate> action;
  /// The data sources whose tokens change this trigger's state: one entry
  /// per stored alpha memory (a stream variable of a join; a variable over
  /// a local table is a virtual node and keeps nothing), plus an
  /// aggregate's source. Each entry counts toward
  /// TriggerDirectory::NeedsMaintenance while the trigger is installed.
  std::vector<DataSourceId> maintained_sources;
  /// Aggregate values a firing supplies ahead of `constants`.
  uint32_t num_aggregates = 0;
  /// True when a firing needs the trigger's A-TREAT network: join
  /// conditions over several tuple variables, or catch-all conjuncts.
  /// Otherwise the predicate index decided the whole condition and a
  /// match fires straight from the plan.
  bool network = false;
  /// This trigger's constants of the action signature.
  std::vector<Value> constants;

  /// True when tokens of `source` change this trigger's state. Whether a
  /// source is a local table decides whether its nodes are virtual, so a
  /// stored node is never on the same source as a virtual one.
  bool Maintains(DataSourceId source) const {
    return std::find(maintained_sources.begin(), maintained_sources.end(),
                     source) != maintained_sources.end();
  }

  /// Evaluates every `raise event` argument in order; the first error
  /// stops it.
  Status EvalArgs(const ActionContext& ctx, std::vector<Value>* out) const;
};

/// Builds firing plans, interning their action templates by action
/// signature: the action kind, event name or SQL text, generalized
/// arguments, and the binding layout. Thread-safe.
class ActionTemplates {
 public:
  /// The plan of an installed trigger. An aggregate's argument templates
  /// come from its group-by evaluator.
  std::shared_ptr<const FiringPlan> MakePlan(const TriggerRuntime& trigger);

  /// Templates some live plan still uses.
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_multimap<uint64_t, std::weak_ptr<const ActionTemplate>>
      by_signature_;
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_FIRING_PLAN_H_
