#include "network/atreat.h"

#include <algorithm>
#include <deque>

#include "expr/eval.h"

namespace tman {

Result<std::unique_ptr<ATreatNetwork>> ATreatNetwork::Build(
    const ConditionGraph& graph, Database* db,
    const std::vector<Schema>& schemas) {
  if (!schemas.empty() && schemas.size() != graph.nodes().size()) {
    return Status::InvalidArgument(
        "schema count does not match condition graph nodes");
  }
  std::unique_ptr<ATreatNetwork> net(new ATreatNetwork(graph, db));
  net->nodes_.resize(graph.nodes().size());
  bool multi = graph.nodes().size() > 1;
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    const ConditionGraph::Node& gnode = graph.nodes()[i];
    AlphaNode& anode = net->nodes_[i];
    bool local_table =
        db != nullptr && db->HasTable(gnode.info.source_name);
    if (!schemas.empty()) {
      anode.schema = schemas[i];
    } else if (local_table) {
      TMAN_ASSIGN_OR_RETURN(anode.schema, db->SchemaOf(gnode.info.source_name));
    }
    // Single-variable triggers need no memories at all: the predicate
    // index decides everything and the token itself is the firing. A
    // local table is a virtual alpha node (A-TREAT).
    anode.stored = multi && !local_table;
    if (anode.stored) anode.memory = std::make_unique<AlphaMemory>();
  }
  net->CompilePredicates();
  return net;
}

void ATreatNetwork::CompilePredicates() {
  // Only join enumeration over a virtual node reads a selection. A stored
  // node's tuples passed it in the predicate index before AddTuple, and a
  // single-variable trigger's selection is the predicate index's alone.
  for (size_t i = 0; i < nodes_.size() && nodes_.size() > 1; ++i) {
    if (nodes_[i].stored) continue;
    ExprPtr selection = graph_.nodes()[i].SelectionPredicate();
    if (selection == nullptr) continue;
    BindingLayout layout;
    layout.Add(graph_.nodes()[i].info.var, &nodes_[i].schema);
    nodes_[i].compiled_selection = TryCompilePredicate(selection, layout);
  }

  edge_programs_.resize(graph_.edges().size());
  for (size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const ConditionGraph::Edge& e = graph_.edges()[ei];
    BindingLayout layout;
    layout.Add(graph_.nodes()[e.a].info.var, &nodes_[e.a].schema);
    layout.Add(graph_.nodes()[e.b].info.var, &nodes_[e.b].schema);
    for (const ExprPtr& conjunct : e.join_conjuncts) {
      // An unqualified reference resolved against just these two schemas
      // could dodge an ambiguity the interpreter would report over the
      // full binding set — leave those to the interpreter.
      bool unqualified = false;
      for (const std::string& v : ReferencedTupleVars(conjunct)) {
        if (v.empty()) unqualified = true;
      }
      edge_programs_[ei].push_back(
          unqualified ? nullptr : TryCompilePredicate(conjunct, layout));
    }
  }

  if (!graph_.catch_all().empty()) {
    BindingLayout full;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      full.Add(graph_.nodes()[i].info.var, &nodes_[i].schema);
    }
    for (const ExprPtr& conjunct : graph_.catch_all()) {
      catch_all_programs_.push_back(TryCompilePredicate(conjunct, full));
    }
  }
}

Status ATreatNetwork::AddTuple(NetworkNodeId node, const Tuple& tuple) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  if (nodes_[node].stored) nodes_[node].memory->Insert(tuple);
  return Status::OK();
}

Status ATreatNetwork::RemoveTuple(NetworkNodeId node, const Tuple& tuple) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  if (nodes_[node].stored) nodes_[node].memory->Remove(tuple);
  return Status::OK();
}

Bindings ATreatNetwork::MakeBindings(
    const std::vector<std::optional<Tuple>>& bound) const {
  Bindings b;
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i].has_value()) {
      b.Bind(graph_.nodes()[i].info.var, &nodes_[i].schema, &*bound[i]);
    }
  }
  return b;
}

Result<bool> ATreatNetwork::EdgesSatisfied(
    const std::vector<std::optional<Tuple>>& bound, size_t just_bound) const {
  for (size_t ei = 0; ei < graph_.edges().size(); ++ei) {
    const ConditionGraph::Edge& e = graph_.edges()[ei];
    if (e.a != just_bound && e.b != just_bound) continue;
    size_t other = e.a == just_bound ? e.b : e.a;
    if (!bound[other].has_value()) continue;
    const Tuple* pair[2] = {&*bound[e.a], &*bound[e.b]};
    for (size_t ci = 0; ci < e.join_conjuncts.size(); ++ci) {
      const CompiledPredicate* prog = edge_programs_[ei][ci].get();
      if (prog != nullptr) {
        TMAN_ASSIGN_OR_RETURN(bool pass, prog->EvalBool(pair, 2));
        if (!pass) return false;
      } else {
        Bindings b = MakeBindings(bound);
        TMAN_ASSIGN_OR_RETURN(bool pass,
                              EvalPredicate(e.join_conjuncts[ci], b));
        if (!pass) return false;
      }
    }
  }
  return true;
}

Result<bool> ATreatNetwork::CatchAllSatisfied(
    const std::vector<std::optional<Tuple>>& bound) const {
  if (graph_.catch_all().empty()) return true;
  // The catch-all runs with every variable bound; collect the row once.
  bool all_bound = true;
  std::vector<const Tuple*> row(bound.size());
  for (size_t i = 0; i < bound.size(); ++i) {
    if (bound[i].has_value()) {
      row[i] = &*bound[i];
    } else {
      all_bound = false;
      break;
    }
  }
  for (size_t ci = 0; ci < graph_.catch_all().size(); ++ci) {
    const CompiledPredicate* prog =
        all_bound ? catch_all_programs_[ci].get() : nullptr;
    if (prog != nullptr) {
      TMAN_ASSIGN_OR_RETURN(bool pass, prog->EvalBool(row.data(), row.size()));
      if (!pass) return false;
    } else {
      Bindings b = MakeBindings(bound);
      TMAN_ASSIGN_OR_RETURN(bool pass,
                            EvalPredicate(graph_.catch_all()[ci], b));
      if (!pass) return false;
    }
  }
  return true;
}

namespace {

/// Finds an equijoin conjunct `v.f == other.g` between the node being
/// enumerated and an already-bound node; returns the probe field of v and
/// the concrete value from the bound side.
struct EquiProbe {
  bool found = false;
  size_t field = 0;
  Value value;
};

}  // namespace

Status ATreatNetwork::Enumerate(std::vector<std::optional<Tuple>>* bound,
                                const std::vector<size_t>& order, size_t depth,
                                const FiringFn& fn) const {
  if (depth == order.size()) {
    TMAN_ASSIGN_OR_RETURN(bool pass, CatchAllSatisfied(*bound));
    if (pass) {
      std::vector<Tuple> firing;
      firing.reserve(bound->size());
      for (const auto& t : *bound) firing.push_back(t.value_or(Tuple()));
      fn(firing);
    }
    return Status::OK();
  }

  size_t v = order[depth];
  const ConditionGraph::Node& gnode = graph_.nodes()[v];
  const AlphaNode& anode = nodes_[v];

  // Look for an equijoin probe opportunity against a bound variable.
  EquiProbe probe;
  for (const ConditionGraph::Edge& e : graph_.edges()) {
    if (probe.found) break;
    if (e.a != v && e.b != v) continue;
    size_t other = e.a == v ? e.b : e.a;
    if (!(*bound)[other].has_value()) continue;
    for (const ExprPtr& c : e.join_conjuncts) {
      if (c->kind != ExprKind::kBinaryOp || c->bin_op != BinOp::kEq) continue;
      const ExprPtr& l = c->children[0];
      const ExprPtr& r = c->children[1];
      if (l->kind != ExprKind::kColumnRef || r->kind != ExprKind::kColumnRef) {
        continue;
      }
      const Expr* mine = nullptr;
      const Expr* theirs = nullptr;
      if (l->tuple_var == gnode.info.var &&
          r->tuple_var == graph_.nodes()[other].info.var) {
        mine = l.get();
        theirs = r.get();
      } else if (r->tuple_var == gnode.info.var &&
                 l->tuple_var == graph_.nodes()[other].info.var) {
        mine = r.get();
        theirs = l.get();
      } else {
        continue;
      }
      int my_field = anode.schema.FieldIndex(mine->attribute);
      int their_field =
          nodes_[other].schema.FieldIndex(theirs->attribute);
      if (my_field < 0 || their_field < 0) continue;
      probe.found = true;
      probe.field = static_cast<size_t>(my_field);
      probe.value = (*bound)[other]->at(static_cast<size_t>(their_field));
      break;
    }
  }

  Status inner = Status::OK();
  auto consider = [&](const Tuple& candidate) -> bool {
    if (!inner.ok()) return false;
    (*bound)[v] = candidate;
    auto pass = EdgesSatisfied(*bound, v);
    if (!pass.ok()) {
      inner = pass.status();
      (*bound)[v].reset();
      return false;
    }
    if (*pass) {
      Status s = Enumerate(bound, order, depth + 1, fn);
      if (!s.ok()) {
        inner = s;
        (*bound)[v].reset();
        return false;
      }
    }
    (*bound)[v].reset();
    return true;
  };

  if (anode.stored) {
    if (probe.found) {
      anode.memory->ProbeEqual(probe.field, probe.value, consider);
    } else {
      anode.memory->ForEach(consider);
    }
    return inner;
  }

  // Virtual alpha node: enumerate the base table, applying the node's
  // selection predicate on the fly. If the table has an index on the
  // equijoin probe attribute, probe it instead of scanning — the paper's
  // "data values ... can be processed by a query" run through the host's
  // query machinery.
  if (db_ == nullptr || !db_->HasTable(gnode.info.source_name)) {
    return Status::Internal("virtual alpha node without a backing table: " +
                            gnode.info.source_name);
  }
  ExprPtr selection = gnode.SelectionPredicate();
  auto filter_and_consider = [&](const Tuple& t) -> bool {
    if (!inner.ok()) return false;
    if (probe.found &&
        (probe.field >= t.size() || t.at(probe.field) != probe.value)) {
      return true;
    }
    if (selection != nullptr) {
      Result<bool> pass = false;
      if (anode.compiled_selection != nullptr) {
        const Tuple* tuples[] = {&t};
        pass = anode.compiled_selection->EvalBool(tuples, 1);
      } else {
        Bindings b;
        b.Bind(gnode.info.var, &anode.schema, &t);
        pass = EvalPredicate(selection, b);
      }
      if (!pass.ok()) {
        inner = pass.status();
        return false;
      }
      if (!*pass) return true;
    }
    return consider(t);
  };

  if (probe.found && probe.field < anode.schema.num_fields()) {
    auto idx = db_->FindIndexOn(gnode.info.source_name,
                                {anode.schema.field(probe.field).name});
    if (idx.ok()) {
      auto rids = db_->IndexLookup(*idx, {probe.value});
      if (!rids.ok()) return rids.status();
      for (const Rid& rid : *rids) {
        auto t = db_->Get(gnode.info.source_name, rid);
        if (!t.ok()) return t.status();
        if (!filter_and_consider(*t)) break;
      }
      return inner;
    }
  }
  TMAN_RETURN_IF_ERROR(
      db_->Scan(gnode.info.source_name,
                [&](const Rid&, const Tuple& t) {
                  return filter_and_consider(t);
                }));
  return inner;
}

Status ATreatNetwork::MatchJoins(NetworkNodeId node, const Tuple& tuple,
                                 const FiringFn& fn) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  size_t n = nodes_.size();
  std::vector<std::optional<Tuple>> bound(n);
  bound[node] = tuple;
  if (n == 1) {
    TMAN_ASSIGN_OR_RETURN(bool pass, CatchAllSatisfied(bound));
    if (pass) fn({tuple});
    return Status::OK();
  }
  // Enumeration order: BFS from the arriving node across join edges keeps
  // every step constrained; disconnected variables (cartesian) go last.
  std::vector<size_t> order;
  std::vector<bool> seen(n, false);
  seen[node] = true;
  std::deque<size_t> queue{node};
  while (!queue.empty()) {
    size_t u = queue.front();
    queue.pop_front();
    for (const ConditionGraph::Edge& e : graph_.edges()) {
      if (e.a != u && e.b != u) continue;
      size_t w = e.a == u ? e.b : e.a;
      if (!seen[w]) {
        seen[w] = true;
        order.push_back(w);
        queue.push_back(w);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!seen[i]) order.push_back(i);
  }
  return Enumerate(&bound, order, 0, fn);
}

}  // namespace tman
