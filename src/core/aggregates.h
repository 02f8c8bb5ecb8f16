#ifndef TRIGGERMAN_CORE_AGGREGATES_H_
#define TRIGGERMAN_CORE_AGGREGATES_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "types/schema.h"
#include "types/update_descriptor.h"
#include "util/result.h"

namespace tman {

/// Aggregate functions supported in having-clauses and aggregate-trigger
/// actions.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate call found in a trigger's having clause or action
/// arguments: kind plus argument expression (null for count(*) — spelled
/// count() or count(attr)).
struct AggSpec {
  AggKind kind = AggKind::kCount;
  ExprPtr arg;  // may be null (count with no argument)
};

/// Incremental group-by/having evaluation for single-source aggregate
/// triggers — the paper lists scalable processing of trigger conditions
/// involving aggregates as future work (§9); this is a working baseline
/// implementation, not the paper's contribution.
///
/// Semantics: tokens that passed the trigger's selection predicate flow
/// in; each token is assigned to a group by the group-by expressions;
/// aggregates update incrementally (inserts add, deletes remove, updates
/// move); the having condition is evaluated after each change and the
/// trigger fires on a false->true transition (edge-triggered alerting).
///
/// Restrictions (checked where cheap, documented otherwise): one tuple
/// variable; having/action aggregates reference only that variable;
/// non-aggregate column refs in the having clause must be group-by
/// columns (they are evaluated against the arriving token, which agrees
/// with the group on exactly those columns).
class GroupByEvaluator {
 public:
  /// Analyzes the clauses: collects aggregate calls from `having` and
  /// `action_args`, replacing each with a placeholder so the clauses can
  /// be instantiated per group.
  static Result<std::unique_ptr<GroupByEvaluator>> Create(
      std::string var, Schema schema, std::vector<ExprPtr> group_by,
      ExprPtr having, const std::vector<ExprPtr>& action_args);

  /// One fired group: its key, and the aggregate values at firing time.
  struct Firing {
    std::vector<Value> group_key;
    std::vector<Value> agg_values;  // aligned with the collected AggSpecs
  };

  /// Feeds one token (which already passed selection); returns the groups
  /// whose having condition just became true.
  Result<std::vector<Firing>> Apply(const UpdateDescriptor& token);

  /// Maintenance-path entry: adds or removes a single tuple (which
  /// already passed selection) and reports edge firings. The trigger
  /// manager feeds aggregate state this way so deletes and updates reach
  /// the groups regardless of the trigger's event clause.
  Result<std::vector<Firing>> ApplyDelta(const Tuple& tuple, bool add);

  /// The action arguments with each aggregate call replaced by
  /// CONSTANT_i, i-1 indexing a Firing's agg_values.
  const std::vector<ExprPtr>& action_arg_templates() const {
    return action_arg_templates_;
  }

  size_t num_groups() const;
  size_t num_aggregates() const { return specs_.size(); }

 private:
  GroupByEvaluator() = default;

  struct AggState {
    int64_t count = 0;
    double sum = 0;
    std::multiset<Value> values;  // min/max support under deletion
  };

  struct GroupState {
    std::vector<Value> key;
    int64_t rows = 0;
    std::vector<AggState> aggs;
    bool was_true = false;
  };

  /// Replaces aggregate calls in `e` with placeholders, appending new
  /// specs to specs_ (deduplicating structurally equal calls).
  Result<ExprPtr> ExtractAggregates(const ExprPtr& e);

  Result<std::vector<Value>> GroupKeyOf(const Tuple& tuple) const;
  Status AddTuple(GroupState* g, const Tuple& tuple);
  Status RemoveTuple(GroupState* g, const Tuple& tuple);
  Result<Value> CurrentValue(const AggState& a, AggKind kind) const;
  Result<bool> HavingTrue(const GroupState& g, const Tuple& token_tuple,
                          std::vector<Value>* agg_values) const;

  /// Compiles group-by keys, aggregate arguments, and the having template
  /// against the token schema (called once from Create).
  void CompileClauses();

  std::string var_;
  Schema schema_;
  std::vector<ExprPtr> group_by_;
  ExprPtr having_template_;  // having with aggregate placeholders
  std::vector<ExprPtr> action_arg_templates_;
  std::vector<AggSpec> specs_;

  /// Bytecode programs for the per-token hot path (null entries fall back
  /// to the interpreter). The having program takes the aggregate values
  /// as VM parameters, replacing the per-eval BindPlaceholders rebuild.
  std::vector<std::shared_ptr<const CompiledPredicate>> compiled_group_by_;
  std::vector<std::shared_ptr<const CompiledPredicate>> compiled_agg_args_;
  std::shared_ptr<const CompiledPredicate> compiled_having_;

  mutable std::mutex mutex_;
  std::map<std::string, GroupState> groups_;  // encoded key -> state
};

/// Parses an aggregate function name; NotFound for non-aggregates.
Result<AggKind> AggKindFromName(std::string_view name);

}  // namespace tman

#endif  // TRIGGERMAN_CORE_AGGREGATES_H_
