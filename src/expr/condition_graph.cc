#include "expr/condition_graph.h"

#include <algorithm>

#include "util/string_util.h"

namespace tman {

Result<ConditionGraph> ConditionGraph::Build(
    std::vector<TupleVarInfo> vars, const std::vector<ExprPtr>& cnf) {
  ConditionGraph g;
  g.nodes_.reserve(vars.size());
  for (TupleVarInfo& v : vars) {
    g.nodes_.push_back(Node{std::move(v), {}});
  }

  for (const ConjunctGroup& group : GroupConjuncts(cnf)) {
    if (group.vars.empty()) {
      // Trivial predicates (no tuple variables).
      for (const ExprPtr& c : group.conjuncts) g.catch_all_.push_back(c);
      continue;
    }
    if (group.vars.size() == 1) {
      TMAN_ASSIGN_OR_RETURN(size_t node, g.NodeIndex(group.vars[0]));
      for (const ExprPtr& c : group.conjuncts) {
        g.nodes_[node].selection_conjuncts.push_back(c);
      }
      continue;
    }
    if (group.vars.size() == 2) {
      TMAN_ASSIGN_OR_RETURN(size_t a, g.NodeIndex(group.vars[0]));
      TMAN_ASSIGN_OR_RETURN(size_t b, g.NodeIndex(group.vars[1]));
      auto it = std::find_if(g.edges_.begin(), g.edges_.end(),
                             [a, b](const Edge& e) {
                               return (e.a == a && e.b == b) ||
                                      (e.a == b && e.b == a);
                             });
      if (it == g.edges_.end()) {
        g.edges_.push_back(Edge{a, b, group.conjuncts});
      } else {
        for (const ExprPtr& c : group.conjuncts) {
          it->join_conjuncts.push_back(c);
        }
      }
      continue;
    }
    // Hyper-join predicates (3+ tuple variables): catch-all list.
    for (const ExprPtr& c : group.conjuncts) g.catch_all_.push_back(c);
  }
  return g;
}

Result<size_t> ConditionGraph::NodeIndex(const std::string& var) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (EqualsIgnoreCase(nodes_[i].info.var, var)) return i;
  }
  return Status::NotFound("unknown tuple variable in condition: " + var);
}

std::string ConditionGraph::ToString() const {
  std::string out;
  for (const Node& n : nodes_) {
    out += "node " + n.info.var + " (" + n.info.source_name + ", on " +
           std::string(OpCodeName(n.info.event)) + "): ";
    out += n.selection_conjuncts.empty()
               ? "<true>"
               : ExprToString(AndAll(n.selection_conjuncts));
    out += "\n";
  }
  for (const Edge& e : edges_) {
    out += "edge " + nodes_[e.a].info.var + " -- " + nodes_[e.b].info.var +
           ": " + ExprToString(AndAll(e.join_conjuncts)) + "\n";
  }
  for (const ExprPtr& c : catch_all_) {
    out += "catch-all: " + ExprToString(c) + "\n";
  }
  return out;
}

}  // namespace tman
