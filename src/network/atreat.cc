#include "network/atreat.h"

#include <algorithm>

#include "expr/eval.h"

namespace tman {

bool ATreatNetwork::NodeStored(const ConditionGraph& graph, const Database* db,
                               size_t node) {
  return graph.nodes().size() > 1 &&
         !(db != nullptr && db->HasTable(graph.nodes()[node].info.source_name));
}

std::vector<AlphaMemoryRef> ATreatNetwork::PrivateMemories(
    const ConditionGraph& graph, const Database* db) {
  std::vector<AlphaMemoryRef> memories(graph.nodes().size());
  for (size_t i = 0; i < memories.size(); ++i) {
    if (NodeStored(graph, db, i)) {
      memories[i].memory = std::make_shared<AlphaMemory>();
    }
  }
  return memories;
}

Result<std::unique_ptr<ATreatNetwork>> ATreatNetwork::Build(
    const ConditionGraph& graph, Database* db,
    const std::vector<Schema>& schemas, std::vector<AlphaMemoryRef> memories) {
  const size_t n = graph.nodes().size();
  if (!schemas.empty() && schemas.size() != n) {
    return Status::InvalidArgument(
        "schema count does not match condition graph nodes");
  }
  if (!memories.empty() && memories.size() != n) {
    return Status::InvalidArgument(
        "memory count does not match condition graph nodes");
  }
  std::unique_ptr<ATreatNetwork> net(new ATreatNetwork(graph, db));
  net->nodes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ConditionGraph::Node& gnode = graph.nodes()[i];
    AlphaNode& anode = net->nodes_[i];
    if (!schemas.empty()) {
      anode.schema = schemas[i];
    } else if (db != nullptr && db->HasTable(gnode.info.source_name)) {
      TMAN_ASSIGN_OR_RETURN(anode.schema, db->SchemaOf(gnode.info.source_name));
    }
    if (!NodeStored(graph, db, i)) continue;
    if (memories.empty() || memories[i].memory == nullptr) {
      return Status::InvalidArgument("stored alpha node " + gnode.info.var +
                                     " has no memory");
    }
    anode.memory = std::move(memories[i]);
  }
  net->CompilePredicates();
  net->steps_.reserve(n);
  for (size_t a = 0; a < n; ++a) net->steps_.push_back(net->PlanSteps(a));
  // Index every memory on the fields its equality probes read, so probes
  // run under the memory's shared lock.
  for (const std::vector<Step>& steps : net->steps_) {
    for (const Step& step : steps) {
      const AlphaMemoryRef& m = net->nodes_[step.node].memory;
      if (step.probe && m.memory != nullptr) m.memory->AddIndex(step.field);
    }
  }
  return net;
}

std::vector<ATreatNetwork::Step> ATreatNetwork::PlanSteps(
    size_t arrival) const {
  const size_t n = nodes_.size();
  std::vector<size_t> order;
  std::vector<bool> seen(n, false);
  seen[arrival] = true;
  for (size_t head = 0, u = arrival;; u = order[head++]) {
    for (const ConditionGraph::Edge& e : graph_.edges()) {
      if (e.a != u && e.b != u) continue;
      size_t w = e.a == u ? e.b : e.a;
      if (!seen[w]) {
        seen[w] = true;
        order.push_back(w);
      }
    }
    if (head == order.size()) break;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!seen[i]) order.push_back(i);
  }

  std::vector<bool> bound(n, false);
  bound[arrival] = true;
  std::vector<Step> steps;
  for (size_t v : order) {
    Step step;
    step.node = v;
    const std::string& var = graph_.nodes()[v].info.var;
    for (size_t ei = 0; ei < graph_.edges().size(); ++ei) {
      const ConditionGraph::Edge& e = graph_.edges()[ei];
      if (e.a != v && e.b != v) continue;
      size_t other = e.a == v ? e.b : e.a;
      if (!bound[other]) continue;
      step.edges.push_back(ei);
      // The first equijoin conjunct `v.f = other.g` supplies the probe.
      const std::string& other_var = graph_.nodes()[other].info.var;
      for (const ExprPtr& c : e.join_conjuncts) {
        if (step.probe) break;
        if (c->kind != ExprKind::kBinaryOp || c->bin_op != BinOp::kEq) {
          continue;
        }
        const ExprPtr& l = c->children[0];
        const ExprPtr& r = c->children[1];
        if (l->kind != ExprKind::kColumnRef ||
            r->kind != ExprKind::kColumnRef) {
          continue;
        }
        const Expr* mine = nullptr;
        const Expr* theirs = nullptr;
        if (l->tuple_var == var && r->tuple_var == other_var) {
          mine = l.get();
          theirs = r.get();
        } else if (r->tuple_var == var && l->tuple_var == other_var) {
          mine = r.get();
          theirs = l.get();
        } else {
          continue;
        }
        int my_field = nodes_[v].schema.FieldIndex(mine->attribute);
        int their_field = nodes_[other].schema.FieldIndex(theirs->attribute);
        if (my_field < 0 || their_field < 0) continue;
        step.probe = true;
        step.field = static_cast<size_t>(my_field);
        step.other = other;
        step.other_field = static_cast<size_t>(their_field);
      }
    }
    bound[v] = true;
    steps.push_back(std::move(step));
  }
  return steps;
}

void ATreatNetwork::CompilePredicates() {
  // Only join enumeration over a virtual node reads a selection. A stored
  // node's tuples passed it in the predicate index before maintenance,
  // and a single-variable trigger's selection is the predicate index's
  // alone.
  for (size_t i = 0; i < nodes_.size() && nodes_.size() > 1; ++i) {
    if (nodes_[i].memory.memory != nullptr) continue;
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
  const AlphaMemoryRef& m = nodes_[node].memory;
  if (m.memory != nullptr) m.memory->Insert(tuple);
  return Status::OK();
}

Status ATreatNetwork::RemoveTuple(NetworkNodeId node, const Tuple& tuple) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("bad network node id");
  }
  const AlphaMemoryRef& m = nodes_[node].memory;
  if (m.memory != nullptr) m.memory->Remove(tuple);
  return Status::OK();
}

Bindings ATreatNetwork::MakeBindings(const Tuple* const* bound) const {
  Bindings b;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (bound[i] != nullptr) {
      b.Bind(graph_.nodes()[i].info.var, &nodes_[i].schema, bound[i]);
    }
  }
  return b;
}

Result<bool> ATreatNetwork::EdgesSatisfied(const Tuple* const* bound,
                                           const Step& step) const {
  for (size_t ei : step.edges) {
    const ConditionGraph::Edge& e = graph_.edges()[ei];
    const Tuple* pair[2] = {bound[e.a], bound[e.b]};
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

Result<bool> ATreatNetwork::CatchAllSatisfied(const Tuple* const* bound) const {
  // Runs with every variable bound.
  for (size_t ci = 0; ci < graph_.catch_all().size(); ++ci) {
    const CompiledPredicate* prog = catch_all_programs_[ci].get();
    if (prog != nullptr) {
      TMAN_ASSIGN_OR_RETURN(bool pass, prog->EvalBool(bound, nodes_.size()));
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

Status ATreatNetwork::Enumerate(const Tuple** bound,
                                const std::vector<Step>& steps, size_t depth,
                                const FiringFn& fn) const {
  if (depth == steps.size()) {
    TMAN_ASSIGN_OR_RETURN(bool pass, CatchAllSatisfied(bound));
    if (pass) fn(bound);
    return Status::OK();
  }
  const Step& step = steps[depth];
  const AlphaMemoryRef& m = nodes_[step.node].memory;
  if (m.memory == nullptr) return EnumerateVirtual(bound, steps, depth, fn);

  RowSnapshot rows;
  const Tuple* probe_from = step.probe ? bound[step.other] : nullptr;
  if (probe_from != nullptr && step.other_field < probe_from->size()) {
    m.memory->SnapshotEqual(step.field, probe_from->at(step.other_field),
                            m.since, &rows);
  } else {
    m.memory->Snapshot(m.since, &rows);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    bound[step.node] = &rows[i].tuple;
    Result<bool> pass = EdgesSatisfied(bound, step);
    Status s = pass.ok() ? Status::OK() : pass.status();
    if (s.ok() && *pass) s = Enumerate(bound, steps, depth + 1, fn);
    bound[step.node] = nullptr;
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ATreatNetwork::EnumerateVirtual(const Tuple** bound,
                                       const std::vector<Step>& steps,
                                       size_t depth,
                                       const FiringFn& fn) const {
  // Enumerate the base table, applying the node's selection predicate on
  // the fly. If the table has an index on the equijoin probe attribute,
  // probe it instead of scanning — the paper's "data values ... can be
  // processed by a query" run through the host's query machinery.
  const Step& step = steps[depth];
  const ConditionGraph::Node& gnode = graph_.nodes()[step.node];
  const AlphaNode& anode = nodes_[step.node];
  if (db_ == nullptr || !db_->HasTable(gnode.info.source_name)) {
    return Status::Internal("virtual alpha node without a backing table: " +
                            gnode.info.source_name);
  }
  const Value* probe_value = nullptr;
  if (step.probe && step.other_field < bound[step.other]->size()) {
    probe_value = &bound[step.other]->at(step.other_field);
  }
  ExprPtr selection = gnode.SelectionPredicate();
  Status inner = Status::OK();
  auto filter_and_consider = [&](const Tuple& t) -> bool {
    if (probe_value != nullptr &&
        (step.field >= t.size() || t.at(step.field) != *probe_value)) {
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
    bound[step.node] = &t;
    Result<bool> pass = EdgesSatisfied(bound, step);
    inner = pass.ok() ? Status::OK() : pass.status();
    if (inner.ok() && *pass) inner = Enumerate(bound, steps, depth + 1, fn);
    bound[step.node] = nullptr;
    return inner.ok();
  };

  if (probe_value != nullptr && step.field < anode.schema.num_fields()) {
    auto idx = db_->FindIndexOn(gnode.info.source_name,
                                {anode.schema.field(step.field).name});
    if (idx.ok()) {
      auto rids = db_->IndexLookup(*idx, {*probe_value});
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
  const size_t n = nodes_.size();
  if (node >= n) {
    return Status::InvalidArgument("bad network node id");
  }
  constexpr size_t kInlineNodes = 8;
  const Tuple* inline_bound[kInlineNodes] = {};
  std::vector<const Tuple*> heap_bound;
  const Tuple** bound = inline_bound;
  if (n > kInlineNodes) {
    heap_bound.assign(n, nullptr);
    bound = heap_bound.data();
  }
  bound[node] = &tuple;
  return Enumerate(bound, steps_[node], 0, fn);
}

}  // namespace tman
