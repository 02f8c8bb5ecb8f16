#ifndef TRIGGERMAN_NETWORK_ATREAT_H_
#define TRIGGERMAN_NETWORK_ATREAT_H_

#include <memory>
#include <optional>
#include <vector>

#include "db/database.h"
#include "expr/compile.h"
#include "expr/condition_graph.h"
#include "expr/eval.h"
#include "network/alpha_memory.h"
#include "predindex/predicate_entry.h"

namespace tman {

/// The A-TREAT discrimination network of one trigger: one alpha node per
/// tuple variable, join condition testing, and a P-node that emits
/// complete variable bindings (rule firings). A variable over a local
/// MiniDB table gets a virtual alpha node (the table is queried on demand
/// instead of materializing the selection), the memory-saving device
/// that distinguishes A-TREAT from TREAT; any other source (a stream) gets
/// a stored alpha memory.
/// Selection predicates are NOT tested here — the shared predicate index
/// performs all selection testing and passes matched tokens to a network
/// node (the nextNetworkNode of §5.1).
class ATreatNetwork {
 public:
  /// A complete match: one tuple per graph node, aligned with
  /// graph().nodes().
  using FiringFn = std::function<void(const std::vector<Tuple>& bindings)>;

  /// `schemas` (aligned with graph nodes) supplies each tuple variable's
  /// schema; when empty, schemas are read from the database tables named
  /// by the graph (stream sources then require explicit schemas).
  static Result<std::unique_ptr<ATreatNetwork>> Build(
      const ConditionGraph& graph, Database* db,
      const std::vector<Schema>& schemas = {});

  /// Memory maintenance: the tuple passed its node's selection predicate
  /// and must be added to / removed from the node's alpha memory. No-ops
  /// for virtual nodes and single-variable triggers.
  Status AddTuple(NetworkNodeId node, const Tuple& tuple) const;
  Status RemoveTuple(NetworkNodeId node, const Tuple& tuple) const;

  /// Join processing (§5.4): `tuple` arrived at `node` and already passed
  /// selection; enumerate combinations of tuples from the other alpha
  /// nodes satisfying every join predicate and catch-all conjunct, and
  /// call `fn` for each complete binding.
  Status MatchJoins(NetworkNodeId node, const Tuple& tuple,
                    const FiringFn& fn) const;

  const ConditionGraph& graph() const { return graph_; }
  size_t num_nodes() const { return graph_.nodes().size(); }
  bool node_stored(NetworkNodeId node) const {
    return nodes_[node].stored;
  }
  const Schema& node_schema(NetworkNodeId node) const {
    return nodes_[node].schema;
  }
  size_t memory_size(NetworkNodeId node) const {
    return nodes_[node].stored ? nodes_[node].memory->size() : 0;
  }

 private:
  struct AlphaNode {
    bool stored = true;
    std::unique_ptr<AlphaMemory> memory;  // stored nodes only
    Schema schema;
    /// A virtual node's selection predicate compiled against its schema,
    /// for join enumeration over the base table; null for stored nodes
    /// (the predicate index applied it before AddTuple), when there is no
    /// predicate, or when compilation was refused (eval then falls back
    /// to the interpreter).
    std::shared_ptr<const CompiledPredicate> compiled_selection;
  };

  ATreatNetwork(ConditionGraph graph, Database* db)
      : graph_(std::move(graph)), db_(db) {}

  /// Depth-first enumeration over the remaining nodes.
  Status Enumerate(std::vector<std::optional<Tuple>>* bound,
                   const std::vector<size_t>& order, size_t depth,
                   const FiringFn& fn) const;

  /// Tests every join edge / catch-all conjunct fully bound by `bound`
  /// that involves `just_bound`.
  Result<bool> EdgesSatisfied(const std::vector<std::optional<Tuple>>& bound,
                              size_t just_bound) const;

  Result<bool> CatchAllSatisfied(
      const std::vector<std::optional<Tuple>>& bound) const;

  Bindings MakeBindings(const std::vector<std::optional<Tuple>>& bound) const;

  /// Compiles selection/join/catch-all predicates once schemas are known.
  void CompilePredicates();

  ConditionGraph graph_;
  Database* db_;
  std::vector<AlphaNode> nodes_;

  /// Compiled join conjuncts, aligned with graph_.edges() and each edge's
  /// join_conjuncts; layout is [node a, node b]. Null entries fall back
  /// to the interpreter over full bindings.
  std::vector<std::vector<std::shared_ptr<const CompiledPredicate>>>
      edge_programs_;

  /// Compiled catch-all conjuncts over the full node layout; evaluated
  /// only with every variable bound, so unqualified-name resolution
  /// matches the interpreter exactly.
  std::vector<std::shared_ptr<const CompiledPredicate>> catch_all_programs_;
};

}  // namespace tman

#endif  // TRIGGERMAN_NETWORK_ATREAT_H_
