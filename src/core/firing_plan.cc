#include "core/firing_plan.h"

#include "core/trigger.h"
#include "expr/eval.h"
#include "expr/rewrite.h"
#include "expr/signature.h"
#include "util/hash.h"

namespace tman {

namespace {

uint64_t SignatureHash(const ActionTemplate& t) {
  uint64_t h = MixInt(static_cast<uint64_t>(t.kind));
  h = HashCombine(h, HashString(t.sql));
  h = HashCombine(h, HashString(t.event_name));
  for (const ExprPtr& arg : t.args) h = HashCombine(h, ExprHash(arg));
  for (const ActionVar& v : t.vars) {
    h = HashCombine(h, HashString(v.var));
    h = HashCombine(h, HashString(v.source));
    for (size_t f = 0; f < v.schema.num_fields(); ++f) {
      h = HashCombine(h, HashString(v.schema.field(f).name));
      h = HashCombine(h, static_cast<uint64_t>(v.schema.field(f).type));
    }
  }
  return h;
}

bool SameSignature(const ActionTemplate& a, const ActionTemplate& b) {
  if (a.kind != b.kind || a.sql != b.sql || a.event_name != b.event_name ||
      a.args.size() != b.args.size() || a.vars.size() != b.vars.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!ExprEquals(a.args[i], b.args[i])) return false;
  }
  for (size_t i = 0; i < a.vars.size(); ++i) {
    if (a.vars[i].var != b.vars[i].var ||
        a.vars[i].source != b.vars[i].source ||
        !(a.vars[i].schema == b.vars[i].schema)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Value> ActionTemplate::EvalArg(size_t i, const Tuple* const* tuples,
                                      const std::vector<Value>& params) const {
  if (programs[i] != nullptr) {
    return programs[i]->EvalValue(tuples, vars.size(), params.data(),
                                  params.size());
  }
  TMAN_ASSIGN_OR_RETURN(ExprPtr bound, BindPlaceholders(args[i], params));
  Bindings b;
  for (size_t v = 0; v < vars.size(); ++v) {
    b.Bind(vars[v].var, &vars[v].schema, tuples[v]);
  }
  return EvalExpr(bound, b);
}

Status FiringPlan::EvalArgs(const ActionContext& ctx,
                            std::vector<Value>* out) const {
  const std::vector<Value>* params = &constants;
  std::vector<Value> joined;
  if (num_aggregates > 0) {
    if (ctx.aggregates == nullptr ||
        ctx.aggregates->size() != num_aggregates) {
      return Status::Internal("aggregate action of trigger " + name +
                              " fired without its group's values");
    }
    joined = *ctx.aggregates;
    joined.insert(joined.end(), constants.begin(), constants.end());
    params = &joined;
  }
  out->clear();
  out->reserve(action->args.size());
  for (size_t i = 0; i < action->args.size(); ++i) {
    TMAN_ASSIGN_OR_RETURN(Value v, action->EvalArg(i, ctx.bindings, *params));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

std::shared_ptr<const FiringPlan> ActionTemplates::MakePlan(
    const TriggerRuntime& trigger, std::unique_ptr<TriggerState> state,
    const AggregateClauses* aggregate) {
  auto plan = std::make_shared<FiringPlan>();
  plan->name = trigger.name;
  plan->network =
      trigger.multi_variable() || !trigger.graph.catch_all().empty();

  auto action = std::make_shared<ActionTemplate>();
  const ActionSpec& spec = trigger.cmd.action;
  action->kind = spec.kind;
  const auto& nodes = trigger.graph.nodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    action->vars.push_back({nodes[i].info.var, nodes[i].info.source_name,
                            trigger.network->node_schema(i)});
  }
  if (spec.kind == ActionKind::kExecSql) {
    action->sql = spec.sql;
  } else {
    action->event_name = spec.event_name;
    const std::vector<ExprPtr>* args = &spec.event_args;
    if (aggregate != nullptr) {
      args = &aggregate->action_args;
      plan->num_aggregates = static_cast<uint32_t>(aggregate->calls.size());
    }
    for (const ExprPtr& arg : *args) {
      action->args.push_back(GeneralizeLiterals(
          arg, static_cast<int>(plan->num_aggregates), &plan->constants));
    }
  }

  plan->state = std::move(state);

  const uint64_t hash = SignatureHash(*action);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [begin, end] = by_signature_.equal_range(hash);
  for (auto it = begin; it != end;) {
    std::shared_ptr<const ActionTemplate> shared = it->second.lock();
    if (shared == nullptr) {
      it = by_signature_.erase(it);  // every plan using it was dropped
      continue;
    }
    if (SameSignature(*shared, *action)) {
      plan->action = std::move(shared);
      return plan;
    }
    ++it;
  }
  // First trigger of this signature: compile its arguments once.
  BindingLayout layout;
  for (const ActionVar& v : action->vars) layout.Add(v.var, &v.schema);
  CompileOptions opts;
  opts.allow_params = true;
  for (const ExprPtr& arg : action->args) {
    action->programs.push_back(TryCompilePredicate(arg, layout, opts));
  }
  by_signature_.emplace(hash, action);
  plan->action = std::move(action);
  return plan;
}

size_t ActionTemplates::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const auto& [hash, weak] : by_signature_) {
    if (!weak.expired()) ++live;
  }
  return live;
}

}  // namespace tman
