#include "core/actions.h"

#include <cctype>

#include "db/sql.h"
#include "expr/eval.h"
#include "util/string_util.h"

namespace tman {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Reads an identifier starting at `pos`; advances past it.
std::string ReadIdent(const std::string& s, size_t* pos) {
  size_t start = *pos;
  while (*pos < s.size() && IsIdentChar(s[*pos])) ++*pos;
  return s.substr(start, *pos - start);
}

}  // namespace

Result<Value> ActionExecutor::ResolveMacro(bool is_new, const std::string& var,
                                           const std::string& attr,
                                           const ActionTemplate& action,
                                           const ActionContext& ctx) const {
  const std::vector<ActionVar>& vars = action.vars;

  if (!is_new) {
    // :OLD refers to the pre-update image, which only exists for the
    // token's own tuple variable.
    const std::string& arrival_var = vars[ctx.arrival_node].var;
    if (!var.empty() && !EqualsIgnoreCase(var, arrival_var)) {
      return Status::InvalidArgument(
          ":OLD." + var + " does not name the updated tuple variable (" +
          arrival_var + ")");
    }
    if (!ctx.token->old_tuple.has_value()) {
      return Status::InvalidArgument(
          ":OLD reference in a trigger fired by an insert");
    }
    const Schema& schema = vars[ctx.arrival_node].schema;
    TMAN_ASSIGN_OR_RETURN(size_t f, schema.RequireField(attr));
    return ctx.token->old_tuple->at(f);
  }

  // :NEW — qualified: the named variable's binding; unqualified: the
  // unique binding that has the attribute.
  Bindings b;
  for (size_t i = 0; i < vars.size(); ++i) {
    b.Bind(vars[i].var, &vars[i].schema, ctx.bindings[i]);
  }
  return b.Lookup(ToLower(var), ToLower(attr));
}

Result<std::string> ActionExecutor::SubstituteMacros(
    const std::string& sql, const ActionTemplate& action,
    const ActionContext& ctx) const {
  std::string out;
  out.reserve(sql.size());
  size_t pos = 0;
  while (pos < sql.size()) {
    char c = sql[pos];
    if (c != ':') {
      out.push_back(c);
      ++pos;
      continue;
    }
    size_t save = pos;
    ++pos;
    std::string kind = ReadIdent(sql, &pos);
    bool is_new = EqualsIgnoreCase(kind, "new");
    bool is_old = EqualsIgnoreCase(kind, "old");
    if ((!is_new && !is_old) || pos >= sql.size() || sql[pos] != '.') {
      out.push_back(':');
      pos = save + 1;
      continue;
    }
    ++pos;  // '.'
    std::string first = ReadIdent(sql, &pos);
    std::string var;
    std::string attr = first;
    if (pos < sql.size() && sql[pos] == '.' && pos + 1 < sql.size() &&
        IsIdentChar(sql[pos + 1])) {
      size_t dot = pos;
      ++pos;
      std::string second = ReadIdent(sql, &pos);
      // ":NEW.emp.salary": emp is the variable — but only when "emp"
      // actually names one; otherwise back off to the one-part form
      // (e.g. ":NEW.salary.x" in "salary.x" table-qualified SQL).
      bool known_var = false;
      for (const ActionVar& v : action.vars) {
        if (EqualsIgnoreCase(v.var, first) ||
            EqualsIgnoreCase(v.source, first)) {
          known_var = true;
          break;
        }
      }
      if (known_var) {
        var = first;
        attr = second;
      } else {
        pos = dot;  // rewind: treat as :NEW.attr
      }
    }
    TMAN_ASSIGN_OR_RETURN(Value v,
                          ResolveMacro(is_new, var, attr, action, ctx));
    out += v.ToString();
  }
  return out;
}

Status ActionExecutor::Execute(const FiringPlan& plan,
                               const ActionContext& ctx) {
  actions_.fetch_add(1, std::memory_order_relaxed);
  const ActionTemplate& action = *plan.action;
  if (action.kind == ActionKind::kExecSql) {
    TMAN_ASSIGN_OR_RETURN(std::string sql,
                          SubstituteMacros(action.sql, action, ctx));
    auto result = ExecuteSql(db_, sql);
    if (!result.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return result.status();
    }
    sql_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // raise event
  Event event;
  event.name = action.event_name;
  Status s = plan.EvalArgs(ctx, &event.args);
  if (!s.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  events_->Raise(std::move(event));
  raised_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

ActionStats ActionExecutor::stats() const {
  ActionStats st;
  st.actions_executed = actions_.load(std::memory_order_relaxed);
  st.sql_statements = sql_.load(std::memory_order_relaxed);
  st.events_raised = raised_.load(std::memory_order_relaxed);
  st.action_errors = errors_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace tman
