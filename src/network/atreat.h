#ifndef TRIGGERMAN_NETWORK_ATREAT_H_
#define TRIGGERMAN_NETWORK_ATREAT_H_

#include <memory>
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
/// a stored alpha memory. The network does not own its stored memories:
/// the engine keeps one per distinct selection and shares it between the
/// networks whose nodes have that selection (AlphaMemoryRegistry).
/// Selection predicates are NOT tested here — the shared predicate index
/// performs all selection testing and passes matched tokens to a network
/// node (the nextNetworkNode of §5.1).
class ATreatNetwork {
 public:
  /// A complete match: one tuple per graph node, aligned with
  /// graph().nodes(). The pointers are valid during the call only.
  using FiringFn = std::function<void(const Tuple* const* bindings)>;

  /// True when node `node` of `graph` keeps a stored alpha memory: a
  /// variable of a multi-variable graph whose source is not a local table.
  /// Single-variable triggers need no memories at all: the predicate
  /// index decides everything and the token itself is the firing.
  static bool NodeStored(const ConditionGraph& graph, const Database* db,
                         size_t node);

  /// A fresh private memory for each stored node of `graph`, for a
  /// network used on its own (tests and benches); the engine attaches
  /// shared ones instead.
  static std::vector<AlphaMemoryRef> PrivateMemories(
      const ConditionGraph& graph, const Database* db);

  /// `schemas` (aligned with graph nodes) supplies each tuple variable's
  /// schema; when empty, schemas are read from the database tables named
  /// by the graph (stream sources then require explicit schemas).
  /// `memories` (aligned with graph nodes) holds each stored node's
  /// memory; it may be empty when no node is stored. The network indexes
  /// each memory on the fields its joins probe.
  static Result<std::unique_ptr<ATreatNetwork>> Build(
      const ConditionGraph& graph, Database* db,
      const std::vector<Schema>& schemas = {},
      std::vector<AlphaMemoryRef> memories = {});

  /// Memory maintenance for a network used on its own: the tuple passed
  /// its node's selection predicate and is added to / removed from the
  /// node's memory. No-ops for virtual nodes and single-variable
  /// triggers. The engine maintains its shared memories directly.
  Status AddTuple(NetworkNodeId node, const Tuple& tuple) const;
  Status RemoveTuple(NetworkNodeId node, const Tuple& tuple) const;

  /// Join processing (§5.4): `tuple` arrived at `node` and already passed
  /// selection; enumerate combinations of tuples from the other alpha
  /// nodes satisfying every join predicate and catch-all conjunct, and
  /// call `fn` for each complete binding. A stored node contributes the
  /// rows of its memory inserted since the node attached.
  Status MatchJoins(NetworkNodeId node, const Tuple& tuple,
                    const FiringFn& fn) const;

  const ConditionGraph& graph() const { return graph_; }
  size_t num_nodes() const { return graph_.nodes().size(); }
  bool node_stored(NetworkNodeId node) const {
    return nodes_[node].memory.memory != nullptr;
  }
  const Schema& node_schema(NetworkNodeId node) const {
    return nodes_[node].schema;
  }
  /// The rows node `node` sees (0 for a virtual node).
  size_t memory_size(NetworkNodeId node) const {
    const AlphaMemoryRef& m = nodes_[node].memory;
    return m.memory == nullptr ? 0 : m.memory->CountSince(m.since);
  }

 private:
  struct AlphaNode {
    AlphaMemoryRef memory;  // stored nodes only
    Schema schema;
    /// A virtual node's selection predicate compiled against its schema,
    /// for join enumeration over the base table; null for stored nodes
    /// (the predicate index applied it before maintenance), when there
    /// is no predicate, or when compilation was refused (eval then falls
    /// back to the interpreter).
    std::shared_ptr<const CompiledPredicate> compiled_selection;
  };

  /// One level of join enumeration after a token arrived at some node:
  /// the node bound at this level, how its candidates are found, and
  /// which join edges to test once it is bound.
  struct Step {
    size_t node = 0;
    /// An equijoin `node.field = other.other_field` against a node bound
    /// earlier: candidates come from an equality probe on `field`.
    bool probe = false;
    size_t field = 0;
    size_t other = 0;
    size_t other_field = 0;
    /// Edges between `node` and the nodes bound before it.
    std::vector<size_t> edges;
  };

  ATreatNetwork(ConditionGraph graph, Database* db)
      : graph_(std::move(graph)), db_(db) {}

  /// The enumeration order after a token arrives at `arrival`: BFS across
  /// join edges keeps every step constrained; disconnected variables
  /// (cartesian) go last.
  std::vector<Step> PlanSteps(size_t arrival) const;

  /// Depth-first enumeration over the remaining steps.
  Status Enumerate(const Tuple** bound, const std::vector<Step>& steps,
                   size_t depth, const FiringFn& fn) const;

  /// Enumerates a virtual node's base table, applying its selection.
  Status EnumerateVirtual(const Tuple** bound, const std::vector<Step>& steps,
                          size_t depth, const FiringFn& fn) const;

  /// Tests the step's join edges once its node is bound.
  Result<bool> EdgesSatisfied(const Tuple* const* bound,
                              const Step& step) const;

  Result<bool> CatchAllSatisfied(const Tuple* const* bound) const;

  Bindings MakeBindings(const Tuple* const* bound) const;

  /// Compiles selection/join/catch-all predicates once schemas are known.
  void CompilePredicates();

  ConditionGraph graph_;
  Database* db_;
  std::vector<AlphaNode> nodes_;

  /// Enumeration steps per arrival node, planned once at Build.
  std::vector<std::vector<Step>> steps_;

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
