#ifndef TRIGGERMAN_EXPR_REWRITE_H_
#define TRIGGERMAN_EXPR_REWRITE_H_

#include <functional>
#include <string>

#include "expr/expr.h"
#include "util/result.h"

namespace tman {

/// Rewrites every unqualified column reference to carry its tuple
/// variable. `resolver` maps an attribute name to the unique tuple
/// variable whose schema defines it (erroring on ambiguity). Qualified
/// references are validated by `validator` (may be null to skip).
Result<ExprPtr> QualifyColumnRefs(
    const ExprPtr& expr,
    const std::function<Result<std::string>(const std::string& attr)>&
        resolver,
    const std::function<Status(const std::string& var,
                               const std::string& attr)>& validator);

/// Substitutes placeholder nodes with the given constants:
/// CONSTANT_i becomes a literal holding constants[i-1]. Used to
/// re-instantiate a predicate from its signature plus a constant-table row.
Result<ExprPtr> BindPlaceholders(const ExprPtr& expr,
                                 const std::vector<Value>& constants);

/// Substitutes placeholder nodes with column references: CONSTANT_i
/// becomes `var`.`$i` (PlaceholderColumnName(i)). Compiled against a
/// layout whose `var` slot has the fields $1..$m, the result is one
/// program for every constant row of a signature: each evaluation binds
/// that slot to the row's constants.
ExprPtr PlaceholdersToColumns(const ExprPtr& expr, const std::string& var);

/// Name of the column PlaceholdersToColumns gives CONSTANT_`index`. The
/// `$` keeps it apart from every parsed attribute name.
std::string PlaceholderColumnName(int index);

}  // namespace tman

#endif  // TRIGGERMAN_EXPR_REWRITE_H_
