#include "expr/rewrite.h"

namespace tman {

Result<ExprPtr> QualifyColumnRefs(
    const ExprPtr& expr,
    const std::function<Result<std::string>(const std::string& attr)>&
        resolver,
    const std::function<Status(const std::string& var,
                               const std::string& attr)>& validator) {
  if (expr == nullptr) return ExprPtr(nullptr);
  if (expr->kind == ExprKind::kColumnRef) {
    if (expr->tuple_var.empty()) {
      TMAN_ASSIGN_OR_RETURN(std::string var, resolver(expr->attribute));
      return MakeColumnRef(var, expr->attribute);
    }
    if (validator) {
      TMAN_RETURN_IF_ERROR(validator(expr->tuple_var, expr->attribute));
    }
    return expr;
  }
  if (expr->children.empty()) return expr;
  bool changed = false;
  std::vector<ExprPtr> children;
  children.reserve(expr->children.size());
  for (const ExprPtr& c : expr->children) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr nc,
                          QualifyColumnRefs(c, resolver, validator));
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (!changed) return expr;
  auto out = std::make_shared<Expr>(*expr);
  out->children = std::move(children);
  return ExprPtr(out);
}

namespace {

/// Rebuilds `expr` with every placeholder node replaced by `fn(index)`,
/// sharing unchanged subtrees.
Result<ExprPtr> MapPlaceholders(
    const ExprPtr& expr, const std::function<Result<ExprPtr>(int)>& fn) {
  if (expr == nullptr) return ExprPtr(nullptr);
  if (expr->kind == ExprKind::kPlaceholder) {
    return fn(expr->placeholder_index);
  }
  if (expr->children.empty()) return expr;
  bool changed = false;
  std::vector<ExprPtr> children;
  children.reserve(expr->children.size());
  for (const ExprPtr& c : expr->children) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr nc, MapPlaceholders(c, fn));
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (!changed) return expr;
  auto out = std::make_shared<Expr>(*expr);
  out->children = std::move(children);
  return ExprPtr(out);
}

}  // namespace

Result<ExprPtr> BindPlaceholders(const ExprPtr& expr,
                                 const std::vector<Value>& constants) {
  return MapPlaceholders(expr, [&](int idx) -> Result<ExprPtr> {
    if (idx < 1 || static_cast<size_t>(idx) > constants.size()) {
      return Status::InvalidArgument(
          "placeholder CONSTANT_" + std::to_string(idx) +
          " out of range (have " + std::to_string(constants.size()) +
          " constants)");
    }
    return MakeLiteral(constants[static_cast<size_t>(idx - 1)]);
  });
}

ExprPtr PlaceholdersToColumns(const ExprPtr& expr, const std::string& var) {
  return MapPlaceholders(expr, [&](int idx) -> Result<ExprPtr> {
           return MakeColumnRef(var, PlaceholderColumnName(idx));
         })
      .value();
}

std::string PlaceholderColumnName(int index) {
  return "$" + std::to_string(index);
}

}  // namespace tman
