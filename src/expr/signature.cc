#include "expr/signature.h"

#include "expr/cnf.h"
#include "util/hash.h"

namespace tman {

bool ExpressionSignature::Equals(const ExpressionSignature& other) const {
  return data_source == other.data_source && op == other.op &&
         update_columns == other.update_columns &&
         ExprEquals(generalized, other.generalized);
}

uint64_t ExpressionSignature::Hash() const {
  uint64_t h = MixInt(data_source);
  h = HashCombine(h, static_cast<uint64_t>(op));
  for (const std::string& c : update_columns) {
    h = HashCombine(h, HashString(c));
  }
  h = HashCombine(h, ExprHash(generalized));
  return h;
}

std::string ExpressionSignature::Description() const {
  std::string out = "[ds=" + std::to_string(data_source) + " on " +
                    std::string(OpCodeName(op));
  if (!update_columns.empty()) {
    out += "(";
    for (size_t i = 0; i < update_columns.size(); ++i) {
      if (i > 0) out += ", ";
      out += update_columns[i];
    }
    out += ")";
  }
  out += " when " + ExprToString(generalized) + "]";
  return out;
}

namespace {

/// Canonical tuple-variable name used inside signatures. Signatures are
/// per data source; the trigger-local variable spelling must not split
/// equivalence classes, so every column ref is rewritten to this name.
constexpr char kSigVar[] = "t";

/// Puts column-vs-constant comparisons in column-first order so that
/// `50000 < emp.salary` and `emp.salary > 50000` land in the same
/// equivalence class, and renames the tuple variable to the canonical
/// signature variable.
ExprPtr Canonicalize(const ExprPtr& e) {
  if (e == nullptr) return e;
  if (e->kind == ExprKind::kColumnRef) {
    if (e->tuple_var == kSigVar) return e;
    return MakeColumnRef(kSigVar, e->attribute);
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& c : e->children) {
    ExprPtr nc = Canonicalize(c);
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (e->kind == ExprKind::kBinaryOp && IsComparison(e->bin_op) &&
      children[0]->kind == ExprKind::kLiteral &&
      children[1]->kind != ExprKind::kLiteral) {
    return MakeBinary(FlipComparison(e->bin_op), children[1], children[0]);
  }
  if (!changed) return e;
  auto out = std::make_shared<Expr>(*e);
  out->children = std::move(children);
  return ExprPtr(out);
}

}  // namespace

ExprPtr GeneralizeLiterals(const ExprPtr& e, int offset,
                           std::vector<Value>* constants) {
  if (e == nullptr) return e;
  if (e->kind == ExprKind::kLiteral) {
    constants->push_back(e->literal);
    return MakePlaceholder(offset + static_cast<int>(constants->size()));
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& c : e->children) {
    ExprPtr nc = GeneralizeLiterals(c, offset, constants);
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (!changed) return e;
  auto out = std::make_shared<Expr>(*e);
  out->children = std::move(children);
  return ExprPtr(out);
}

Result<GeneralizedPredicate> GeneralizePredicate(DataSourceId ds, OpCode op,
                                                 const ExprPtr& predicate) {
  std::vector<std::string> vars = ReferencedTupleVars(predicate);
  if (vars.size() > 1) {
    return Status::InvalidArgument(
        "selection predicate references more than one tuple variable: " +
        ExprToString(predicate));
  }
  GeneralizedPredicate out;
  out.signature.data_source = ds;
  out.signature.op = op;
  out.signature.generalized =
      GeneralizeLiterals(Canonicalize(predicate), 0, &out.constants);
  out.signature.num_constants = static_cast<int>(out.constants.size());
  return out;
}

namespace {

/// Splits a conjunction into top-level AND operands.
void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinaryOp && e->bin_op == BinOp::kAnd) {
    FlattenAnd(e->children[0], out);
    FlattenAnd(e->children[1], out);
    return;
  }
  out->push_back(e);
}

bool AsEqConjunct(const ExprPtr& e, EqConjunct* out) {
  if (e->kind != ExprKind::kBinaryOp || e->bin_op != BinOp::kEq) return false;
  const ExprPtr& l = e->children[0];
  const ExprPtr& r = e->children[1];
  if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kPlaceholder) {
    out->attribute = l->attribute;
    out->placeholder = r->placeholder_index;
    return true;
  }
  if (r->kind == ExprKind::kColumnRef && l->kind == ExprKind::kPlaceholder) {
    out->attribute = r->attribute;
    out->placeholder = l->placeholder_index;
    return true;
  }
  return false;
}

/// One normalized range conjunct: attr <op> CONSTANT_<placeholder> with
/// the column on the left.
struct RangeConjunct {
  std::string attribute;
  BinOp op = BinOp::kLt;
  int placeholder = 0;
};

bool AsRangeConjunct(const ExprPtr& e, RangeConjunct* out) {
  if (e->kind != ExprKind::kBinaryOp) return false;
  BinOp op = e->bin_op;
  if (op != BinOp::kLt && op != BinOp::kLe && op != BinOp::kGt &&
      op != BinOp::kGe) {
    return false;
  }
  const ExprPtr& l = e->children[0];
  const ExprPtr& r = e->children[1];
  if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kPlaceholder) {
    out->attribute = l->attribute;
    out->op = op;
    out->placeholder = r->placeholder_index;
    return true;
  }
  if (r->kind == ExprKind::kColumnRef && l->kind == ExprKind::kPlaceholder) {
    out->attribute = r->attribute;
    out->op = FlipComparison(op);
    out->placeholder = l->placeholder_index;
    return true;
  }
  return false;
}

}  // namespace

IndexableSplit SplitIndexable(const ExprPtr& generalized) {
  IndexableSplit split;
  std::vector<ExprPtr> conjuncts;
  FlattenAnd(generalized, &conjuncts);

  std::vector<ExprPtr> rest;
  std::vector<std::pair<RangeConjunct, ExprPtr>> ranges;
  for (const ExprPtr& c : conjuncts) {
    EqConjunct eq;
    if (AsEqConjunct(c, &eq)) {
      split.eq.push_back(std::move(eq));
      continue;
    }
    RangeConjunct rc;
    if (AsRangeConjunct(c, &rc)) {
      ranges.emplace_back(std::move(rc), c);
      continue;
    }
    rest.push_back(c);
  }

  if (!split.eq.empty()) {
    // Equality conjuncts win: all of them form the composite index key;
    // every range conjunct joins the rest-of-predicate.
    for (auto& [rc, e] : ranges) rest.push_back(e);
  } else if (!ranges.empty()) {
    // Index the range conjuncts on the first ranged attribute: one lower
    // and one upper bound form a stabbing interval; everything else joins
    // the rest-of-predicate.
    split.has_range = true;
    split.range.attribute = ranges.front().first.attribute;
    for (auto& [rc, e] : ranges) {
      bool is_lower = rc.op == BinOp::kGt || rc.op == BinOp::kGe;
      if (rc.attribute == split.range.attribute) {
        if (is_lower && !split.range.has_lo) {
          split.range.has_lo = true;
          split.range.lo_inclusive = rc.op == BinOp::kGe;
          split.range.lo_placeholder = rc.placeholder;
          continue;
        }
        if (!is_lower && !split.range.has_hi) {
          split.range.has_hi = true;
          split.range.hi_inclusive = rc.op == BinOp::kLe;
          split.range.hi_placeholder = rc.placeholder;
          continue;
        }
      }
      rest.push_back(e);
    }
  }

  if (!rest.empty()) split.rest = AndAll(rest);
  return split;
}

std::string_view SignatureVarName() { return kSigVar; }

}  // namespace tman
