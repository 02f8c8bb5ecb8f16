#ifndef TRIGGERMAN_EXPR_CONDITION_GRAPH_H_
#define TRIGGERMAN_EXPR_CONDITION_GRAPH_H_

#include <string>
#include <vector>

#include "expr/cnf.h"
#include "expr/expr.h"
#include "types/update_descriptor.h"
#include "util/result.h"

namespace tman {

/// A tuple variable from a trigger's from-clause, with the event the
/// on-clause attached to it (implicitly insert-or-update when absent).
struct TupleVarInfo {
  std::string var;
  std::string source_name;
  DataSourceId source_id = 0;
  OpCode event = OpCode::kInsertOrUpdate;
};

/// The trigger condition graph of §5.1 step 3: an undirected graph with a
/// node per tuple variable (holding its selection predicate as CNF
/// conjuncts) and an edge per join predicate. Conjuncts referring to zero
/// or three-plus tuple variables go on the catch-all list and are tested
/// after all joins succeed.
class ConditionGraph {
 public:
  struct Node {
    TupleVarInfo info;
    std::vector<ExprPtr> selection_conjuncts;

    /// AND of the selection conjuncts; null when unconditional.
    ExprPtr SelectionPredicate() const {
      return selection_conjuncts.empty() ? nullptr
                                         : AndAll(selection_conjuncts);
    }
  };

  struct Edge {
    size_t a = 0;
    size_t b = 0;
    std::vector<ExprPtr> join_conjuncts;

    ExprPtr JoinPredicate() const { return AndAll(join_conjuncts); }
  };

  /// Builds the graph from the declared tuple variables and the CNF of
  /// the when-clause (all column refs must already be qualified).
  static Result<ConditionGraph> Build(std::vector<TupleVarInfo> vars,
                                      const std::vector<ExprPtr>& cnf);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<ExprPtr>& catch_all() const { return catch_all_; }

  /// Index of the node for `var`, or error.
  Result<size_t> NodeIndex(const std::string& var) const;

  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<ExprPtr> catch_all_;
};

}  // namespace tman

#endif  // TRIGGERMAN_EXPR_CONDITION_GRAPH_H_
