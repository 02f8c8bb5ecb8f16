#include "core/aggregates.h"

#include "expr/rewrite.h"
#include "types/tuple.h"
#include "util/string_util.h"

namespace tman {

Result<AggKind> AggKindFromName(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  return Status::NotFound("not an aggregate: " + std::string(name));
}

Result<std::unique_ptr<GroupByEvaluator>> GroupByEvaluator::Create(
    std::string var, Schema schema, std::vector<ExprPtr> group_by,
    ExprPtr having, const std::vector<ExprPtr>& action_args) {
  if (group_by.empty()) {
    return Status::InvalidArgument("group by requires at least one column");
  }
  std::unique_ptr<GroupByEvaluator> ev(new GroupByEvaluator());
  ev->var_ = std::move(var);
  ev->schema_ = std::move(schema);
  ev->group_by_ = std::move(group_by);
  if (having != nullptr) {
    TMAN_ASSIGN_OR_RETURN(ev->having_template_,
                          ev->ExtractAggregates(having));
  }
  for (const ExprPtr& arg : action_args) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr t, ev->ExtractAggregates(arg));
    ev->action_arg_templates_.push_back(std::move(t));
  }
  ev->CompileClauses();
  return ev;
}

void GroupByEvaluator::CompileClauses() {
  BindingLayout layout;
  layout.Add(var_, &schema_);
  compiled_group_by_.reserve(group_by_.size());
  for (const ExprPtr& e : group_by_) {
    compiled_group_by_.push_back(TryCompilePredicate(e, layout));
  }
  compiled_agg_args_.reserve(specs_.size());
  for (const AggSpec& spec : specs_) {
    compiled_agg_args_.push_back(
        spec.arg == nullptr ? nullptr : TryCompilePredicate(spec.arg, layout));
  }
  if (having_template_ != nullptr) {
    // The aggregate placeholders become VM parameter loads, so the per-eval
    // BindPlaceholders tree rebuild disappears from the hot path.
    CompileOptions opts;
    opts.allow_params = true;
    compiled_having_ = TryCompilePredicate(having_template_, layout, opts);
  }
}

Result<ExprPtr> GroupByEvaluator::ExtractAggregates(const ExprPtr& e) {
  if (e == nullptr) return e;
  if (e->kind == ExprKind::kFunctionCall) {
    auto kind = AggKindFromName(e->func_name);
    if (kind.ok()) {
      if (e->children.size() > 1) {
        return Status::InvalidArgument(e->func_name +
                                       " takes at most one argument");
      }
      AggSpec spec;
      spec.kind = *kind;
      spec.arg = e->children.empty() ? nullptr : e->children[0];
      if (*kind != AggKind::kCount && spec.arg == nullptr) {
        return Status::InvalidArgument(e->func_name +
                                       " requires an argument");
      }
      // Deduplicate structurally equal aggregate calls.
      for (size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].kind == spec.kind &&
            ExprEquals(specs_[i].arg, spec.arg)) {
          return MakePlaceholder(static_cast<int>(i + 1));
        }
      }
      specs_.push_back(std::move(spec));
      return MakePlaceholder(static_cast<int>(specs_.size()));
    }
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& c : e->children) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr nc, ExtractAggregates(c));
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (!changed) return e;
  auto out = std::make_shared<Expr>(*e);
  out->children = std::move(children);
  return ExprPtr(out);
}

Result<std::vector<Value>> GroupByEvaluator::GroupKeyOf(
    const Tuple& tuple) const {
  const Tuple* tuples[] = {&tuple};
  std::vector<Value> key;
  key.reserve(group_by_.size());
  for (size_t i = 0; i < group_by_.size(); ++i) {
    Value v;
    if (compiled_group_by_[i] != nullptr) {
      TMAN_ASSIGN_OR_RETURN(v, compiled_group_by_[i]->EvalValue(tuples, 1));
    } else {
      Bindings b;
      b.Bind(var_, &schema_, &tuple);
      TMAN_ASSIGN_OR_RETURN(v, EvalExpr(group_by_[i], b));
    }
    key.push_back(std::move(v));
  }
  return key;
}

Result<Value> GroupByEvaluator::CurrentValue(const AggState& a,
                                             AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return Value::Int(a.count);
    case AggKind::kSum:
      return Value::Float(a.sum);
    case AggKind::kAvg:
      if (a.count == 0) return Value::Null();
      return Value::Float(a.sum / static_cast<double>(a.count));
    case AggKind::kMin:
      if (a.values.empty()) return Value::Null();
      return *a.values.begin();
    case AggKind::kMax:
      if (a.values.empty()) return Value::Null();
      return *a.values.rbegin();
  }
  return Status::Internal("unknown aggregate kind");
}

Status GroupByEvaluator::AddTuple(GroupState* g, const Tuple& tuple) {
  const Tuple* tuples[] = {&tuple};
  ++g->rows;
  for (size_t i = 0; i < specs_.size(); ++i) {
    AggState& a = g->aggs[i];
    const AggSpec& spec = specs_[i];
    if (spec.arg == nullptr) {
      ++a.count;  // count(*)
      continue;
    }
    Value v;
    if (compiled_agg_args_[i] != nullptr) {
      TMAN_ASSIGN_OR_RETURN(v, compiled_agg_args_[i]->EvalValue(tuples, 1));
    } else {
      Bindings b;
      b.Bind(var_, &schema_, &tuple);
      TMAN_ASSIGN_OR_RETURN(v, EvalExpr(spec.arg, b));
    }
    if (v.is_null()) continue;  // SQL: aggregates skip NULLs
    ++a.count;
    if (v.is_numeric()) a.sum += v.AsDouble();
    if (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) {
      a.values.insert(v);
    }
  }
  return Status::OK();
}

Status GroupByEvaluator::RemoveTuple(GroupState* g, const Tuple& tuple) {
  const Tuple* tuples[] = {&tuple};
  if (g->rows > 0) --g->rows;
  for (size_t i = 0; i < specs_.size(); ++i) {
    AggState& a = g->aggs[i];
    const AggSpec& spec = specs_[i];
    if (spec.arg == nullptr) {
      if (a.count > 0) --a.count;
      continue;
    }
    Value v;
    if (compiled_agg_args_[i] != nullptr) {
      TMAN_ASSIGN_OR_RETURN(v, compiled_agg_args_[i]->EvalValue(tuples, 1));
    } else {
      Bindings b;
      b.Bind(var_, &schema_, &tuple);
      TMAN_ASSIGN_OR_RETURN(v, EvalExpr(spec.arg, b));
    }
    if (v.is_null()) continue;
    if (a.count > 0) --a.count;
    if (v.is_numeric()) a.sum -= v.AsDouble();
    if (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) {
      auto it = a.values.find(v);
      if (it != a.values.end()) a.values.erase(it);
    }
  }
  return Status::OK();
}

Result<bool> GroupByEvaluator::HavingTrue(
    const GroupState& g, const Tuple& token_tuple,
    std::vector<Value>* agg_values) const {
  agg_values->clear();
  agg_values->reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    TMAN_ASSIGN_OR_RETURN(Value v, CurrentValue(g.aggs[i], specs_[i].kind));
    agg_values->push_back(std::move(v));
  }
  if (having_template_ == nullptr) return true;
  if (compiled_having_ != nullptr) {
    const Tuple* tuples[] = {&token_tuple};
    return compiled_having_->EvalBool(tuples, 1, agg_values->data(),
                                      agg_values->size());
  }
  TMAN_ASSIGN_OR_RETURN(ExprPtr bound,
                        BindPlaceholders(having_template_, *agg_values));
  Bindings b;
  b.Bind(var_, &schema_, &token_tuple);
  return EvalPredicate(bound, b);
}

Result<std::vector<GroupByEvaluator::Firing>> GroupByEvaluator::ApplyDelta(
    const Tuple& tuple, bool add) {
  UpdateDescriptor token = add ? UpdateDescriptor::Insert(0, tuple)
                               : UpdateDescriptor::Delete(0, tuple);
  return Apply(token);
}

Result<std::vector<GroupByEvaluator::Firing>> GroupByEvaluator::Apply(
    const UpdateDescriptor& token) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Firing> firings;

  auto touch = [&](const Tuple& tuple, bool add) -> Status {
    TMAN_ASSIGN_OR_RETURN(std::vector<Value> key, GroupKeyOf(tuple));
    std::string encoded;
    Tuple(key).Serialize(&encoded);
    auto it = groups_.find(encoded);
    if (it == groups_.end()) {
      if (!add) return Status::OK();  // removing from an unseen group
      GroupState g;
      g.key = key;
      g.aggs.resize(specs_.size());
      it = groups_.emplace(encoded, std::move(g)).first;
    }
    GroupState& g = it->second;
    TMAN_RETURN_IF_ERROR(add ? AddTuple(&g, tuple) : RemoveTuple(&g, tuple));
    std::vector<Value> agg_values;
    TMAN_ASSIGN_OR_RETURN(bool now_true, HavingTrue(g, tuple, &agg_values));
    if (now_true && !g.was_true) {
      firings.push_back(Firing{g.key, std::move(agg_values)});
    }
    g.was_true = now_true;
    if (g.rows == 0 && !g.was_true) groups_.erase(it);
    return Status::OK();
  };

  if (token.old_tuple.has_value() &&
      (token.op == OpCode::kDelete || token.op == OpCode::kUpdate)) {
    TMAN_RETURN_IF_ERROR(touch(*token.old_tuple, /*add=*/false));
  }
  if (token.new_tuple.has_value() &&
      (token.op == OpCode::kInsert || token.op == OpCode::kUpdate)) {
    TMAN_RETURN_IF_ERROR(touch(*token.new_tuple, /*add=*/true));
  }
  return firings;
}

size_t GroupByEvaluator::num_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_.size();
}

}  // namespace tman
