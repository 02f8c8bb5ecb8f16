#ifndef TRIGGERMAN_CORE_ACTIONS_H_
#define TRIGGERMAN_CORE_ACTIONS_H_

#include <atomic>
#include <vector>

#include "core/events.h"
#include "core/firing_plan.h"
#include "db/database.h"

namespace tman {

struct ActionStats {
  uint64_t actions_executed = 0;
  uint64_t sql_statements = 0;
  uint64_t events_raised = 0;
  uint64_t action_errors = 0;
};

/// Executes trigger actions: `execSQL` statements (with :NEW/:OLD macro
/// substitution, §2: "values matching the trigger condition are
/// substituted into the trigger action using macro substitution") against
/// MiniDB, and `raise event` notifications through the EventManager.
class ActionExecutor {
 public:
  ActionExecutor(Database* db, EventManager* events)
      : db_(db), events_(events) {}

  /// Runs `plan`'s action for one firing.
  Status Execute(const FiringPlan& plan, const ActionContext& ctx);

  /// Substitutes :NEW.var.attr / :OLD.var.attr (and unqualified
  /// :NEW.attr) macros with SQL literals from the firing's bindings,
  /// laid out as `action.vars`. Exposed for tests.
  Result<std::string> SubstituteMacros(const std::string& sql,
                                       const ActionTemplate& action,
                                       const ActionContext& ctx) const;

  ActionStats stats() const;

 private:
  Result<Value> ResolveMacro(bool is_new, const std::string& var,
                             const std::string& attr,
                             const ActionTemplate& action,
                             const ActionContext& ctx) const;

  Database* db_;
  EventManager* events_;
  mutable std::atomic<uint64_t> actions_{0};
  mutable std::atomic<uint64_t> sql_{0};
  mutable std::atomic<uint64_t> raised_{0};
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace tman

#endif  // TRIGGERMAN_CORE_ACTIONS_H_
