#include "predindex/org_db.h"

#include <cmath>
#include <optional>

#include "predindex/org_common.h"

namespace tman {

using predindex_internal::DecodeValues;
using predindex_internal::EncodeValues;
using predindex_internal::EntryMatchesProbe;

namespace {
constexpr size_t kFixedCols = 3;  // expr_id, trigger_id, next_node

/// The value of the other numeric type that equals `v`: the float of an
/// int, the int of an integral float within int64 range.
std::optional<Value> NumericTwin(const Value& v) {
  if (const int64_t* i = v.if_int()) {
    return Value::Float(static_cast<double>(*i));
  }
  if (const double* d = v.if_float()) {
    if (std::trunc(*d) == *d && *d >= -9.2e18 && *d <= 9.2e18) {
      return Value::Int(static_cast<int64_t>(*d));
    }
  }
  return std::nullopt;
}

}  // namespace

DbOrganizationBase::DbOrganizationBase(const SignatureContext* ctx,
                                       Database* db)
    : ctx_(ctx), db_(db), table_(ctx->ConstTableName()) {}

Status DbOrganizationBase::Open() {
  if (!db_->HasTable(table_)) {
    std::vector<Field> fields;
    fields.emplace_back("expr_id", DataType::kInt);
    fields.emplace_back("trigger_id", DataType::kInt);
    fields.emplace_back("next_node", DataType::kInt);
    for (int i = 1; i <= ctx_->signature.num_constants; ++i) {
      fields.emplace_back("const_" + std::to_string(i), DataType::kVarchar);
    }
    fields.emplace_back("rest", DataType::kVarchar);
    TMAN_RETURN_IF_ERROR(db_->CreateTable(table_, Schema(fields)).status());
    return Status::OK();
  }
  // Adopt an existing constant table (e.g. after migrating organizations
  // or on restart): rebuild the exprID -> RID map.
  rid_of_.clear();
  return db_->Scan(table_, [this](const Rid& rid, const Tuple& row) {
    rid_of_[static_cast<ExprId>(row.at(0).as_int())] = rid;
    return true;
  });
}

Status DbOrganizationBase::Insert(const PredicateEntry& entry) {
  if (rid_of_.count(entry.expr_id) > 0) {
    return Status::AlreadyExists("expr " + std::to_string(entry.expr_id) +
                                 " already present");
  }
  std::vector<Value> row;
  row.reserve(kFixedCols + entry.constants.size() + 1);
  row.push_back(Value::Int(static_cast<int64_t>(entry.expr_id)));
  row.push_back(Value::Int(static_cast<int64_t>(entry.trigger_id)));
  row.push_back(Value::Int(static_cast<int64_t>(entry.next_node)));
  for (int i = 0; i < ctx_->signature.num_constants; ++i) {
    Value c = static_cast<size_t>(i) < entry.constants.size()
                  ? entry.constants.at(static_cast<size_t>(i))
                  : Value::Null();
    row.push_back(Value::String(EncodeValues({c})));
  }
  row.push_back(Value::Null());  // rest: the signature's program tests it
  TMAN_ASSIGN_OR_RETURN(Rid rid, db_->Insert(table_, Tuple(std::move(row))));
  rid_of_[entry.expr_id] = rid;
  return Status::OK();
}

Status DbOrganizationBase::Remove(ExprId expr_id) {
  auto it = rid_of_.find(expr_id);
  if (it == rid_of_.end()) {
    return Status::NotFound("expr " + std::to_string(expr_id) + " not found");
  }
  TMAN_RETURN_IF_ERROR(db_->Delete(table_, it->second));
  rid_of_.erase(it);
  return Status::OK();
}

Result<PredicateEntry> DbOrganizationBase::DecodeRow(const Tuple& row) const {
  PredicateEntry e;
  e.expr_id = static_cast<ExprId>(row.at(0).as_int());
  e.trigger_id = static_cast<TriggerId>(row.at(1).as_int());
  e.next_node = static_cast<NetworkNodeId>(row.at(2).as_int());
  int m = ctx_->signature.num_constants;
  std::vector<Value> constants;
  constants.reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const Value& cell = row.at(kFixedCols + static_cast<size_t>(i));
    TMAN_ASSIGN_OR_RETURN(std::vector<Value> decoded,
                          DecodeValues(cell.as_string()));
    constants.push_back(decoded.empty() ? Value::Null()
                                        : std::move(decoded[0]));
  }
  e.constants = Tuple(std::move(constants));
  return e;
}

Status DbOrganizationBase::ScanMatch(
    const Probe& probe,
    const std::function<void(const PredicateEntry&)>& fn) const {
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(db_->Scan(table_, [&](const Rid&, const Tuple& row) {
    auto entry = DecodeRow(row);
    if (!entry.ok()) {
      inner = entry.status();
      return false;
    }
    if (EntryMatchesProbe(*ctx_, *entry, probe)) fn(*entry);
    return true;
  }));
  return inner;
}

Status DbOrganizationBase::ForEach(
    const std::function<void(const PredicateEntry&)>& fn) const {
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(db_->Scan(table_, [&](const Rid&, const Tuple& row) {
    auto entry = DecodeRow(row);
    if (!entry.ok()) {
      inner = entry.status();
      return false;
    }
    fn(*entry);
    return true;
  }));
  return inner;
}

Status DbTableOrganization::Match(
    const Probe& probe,
    const std::function<void(const PredicateEntry&)>& fn) const {
  return ScanMatch(probe, fn);
}

DbIndexedTableOrganization::DbIndexedTableOrganization(
    const SignatureContext* ctx, Database* db)
    : DbOrganizationBase(ctx, db),
      index_name_("idx_" + ctx->ConstTableName()) {}

Status DbIndexedTableOrganization::OpenIndexed() {
  TMAN_RETURN_IF_ERROR(Open());
  if (ctx_->split.eq.empty()) return Status::OK();  // nothing to index
  std::vector<std::string> attrs;
  attrs.reserve(ctx_->split.eq.size());
  for (const EqConjunct& c : ctx_->split.eq) {
    attrs.push_back("const_" + std::to_string(c.placeholder));
  }
  Status s = db_->CreateIndex(index_name_, table_, attrs);
  if (s.ok() || s.IsAlreadyExists()) {
    indexed_ = true;
    return Status::OK();
  }
  return s;
}

Status DbIndexedTableOrganization::Match(
    const Probe& probe,
    const std::function<void(const PredicateEntry&)>& fn) const {
  if (!indexed_ || ctx_->split.eq.empty()) {
    // Non-equality signatures: disk indexing for them is the paper's
    // stated future work; scan instead.
    return ScanMatch(probe, fn);
  }
  // A stored cell encodes its constant with its type tag, while an
  // integral probe value equals both its int and its float form (dept = 3
  // holds for 3 and 3.0), so each equality field looks up every encoding
  // that equals its value: one cell key list per combination.
  std::vector<std::vector<Value>> encodings(probe.eq_size());
  for (size_t i = 0; i < probe.eq_size(); ++i) {
    const Value& v = probe.eq_value(i);
    if (v.is_null()) return Status::OK();
    encodings[i].push_back(Value::String(EncodeValues({v})));
    if (std::optional<Value> twin = NumericTwin(v)) {
      encodings[i].push_back(Value::String(EncodeValues({*twin})));
    }
  }
  std::vector<size_t> pick(encodings.size(), 0);
  std::vector<Value> key(encodings.size());
  for (;;) {
    for (size_t i = 0; i < key.size(); ++i) key[i] = encodings[i][pick[i]];
    TMAN_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                          db_->IndexLookup(index_name_, key));
    for (const Rid& rid : rids) {
      TMAN_ASSIGN_OR_RETURN(Tuple row, db_->Get(table_, rid));
      TMAN_ASSIGN_OR_RETURN(PredicateEntry entry, DecodeRow(row));
      fn(entry);
    }
    // Next combination, odometer style; done when every field wrapped.
    size_t i = 0;
    while (i < pick.size() && ++pick[i] == encodings[i].size()) pick[i++] = 0;
    if (i == pick.size()) return Status::OK();
  }
}

}  // namespace tman
