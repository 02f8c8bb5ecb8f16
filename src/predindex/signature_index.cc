#include "predindex/signature_index.h"

#include <algorithm>

#include "expr/compile.h"
#include "expr/eval.h"
#include "expr/rewrite.h"

namespace tman {

namespace {
// Tuple variable of the rest program's second slot: a row's constants.
constexpr char kConstVar[] = "$const";
}  // namespace

SignatureIndexEntry::SignatureIndexEntry(SignatureContext ctx, Database* db,
                                         OrgPolicy policy)
    : ctx_(std::move(ctx)), db_(db), policy_(policy) {}

Status SignatureIndexEntry::Open(const Schema& schema, const Tuple& constants) {
  schema_ = schema;
  for (const EqConjunct& c : ctx_.split.eq) {
    TMAN_ASSIGN_OR_RETURN(size_t f, schema_.RequireField(c.attribute));
    eq_fields_.push_back(f);
    min_width_ = std::max(min_width_, f + 1);
  }
  if (ctx_.split.has_range) {
    TMAN_ASSIGN_OR_RETURN(size_t f,
                          schema_.RequireField(ctx_.split.range.attribute));
    range_field_ = static_cast<int>(f);
    min_width_ = std::max(min_width_, f + 1);
  }
  for (const std::string& col : ctx_.signature.update_columns) {
    TMAN_ASSIGN_OR_RETURN(size_t f, schema_.RequireField(col));
    update_col_fields_.push_back(f);
  }
  if (ctx_.split.rest != nullptr) {
    std::vector<Field> fields;
    for (int i = 1; i <= ctx_.signature.num_constants; ++i) {
      size_t idx = static_cast<size_t>(i - 1);
      fields.emplace_back(PlaceholderColumnName(i),
                          idx < constants.size() ? constants.at(idx).type()
                                                 : DataType::kVarchar);
    }
    // The layout is only read while compiling: the program keeps no
    // schema pointer.
    const Schema const_schema(std::move(fields));
    BindingLayout layout;
    layout.Add(std::string(SignatureVarName()), &schema_);
    layout.Add(kConstVar, &const_schema);
    rest_program_ = TryCompilePredicate(
        PlaceholdersToColumns(ctx_.split.rest, kConstVar), layout);
  }
  OrgType initial =
      policy_.forced ? policy_.forced_type : PickOrgType(0);
  TMAN_ASSIGN_OR_RETURN(org_, CreateOrganization(initial, &ctx_, db_));
  return Status::OK();
}

OrgType SignatureIndexEntry::PickOrgType(size_t size) const {
  if (policy_.forced) return policy_.forced_type;
  // An adaptive pin overrides the static size thresholds between the
  // memory organizations (otherwise the next Insert would migrate a
  // freshly swapped class right back); database promotion at memory_max
  // still wins — it is about footprint, not probe cost.
  int pin = adaptive_pin_.load(std::memory_order_relaxed);
  if (pin != 0 && size <= policy_.memory_max) {
    return static_cast<OrgType>(pin);
  }
  if (size <= policy_.list_max) return OrgType::kMemoryList;
  if (size <= policy_.memory_max) return OrgType::kMemoryIndex;
  return policy_.use_db_index ? OrgType::kDbIndexedTable : OrgType::kDbTable;
}

Status SignatureIndexEntry::MigrateTo(OrgType type) {
  TMAN_ASSIGN_OR_RETURN(std::unique_ptr<ConstantSetOrganization> fresh,
                        CreateOrganization(type, &ctx_, db_));
  Status inner = Status::OK();
  TMAN_RETURN_IF_ERROR(org_->ForEach([&](const PredicateEntry& e) {
    if (!inner.ok()) return;
    Status s = fresh->Insert(e);
    // AlreadyExists can legitimately occur when migrating *to* a database
    // organization that adopted a pre-existing constant table.
    if (!s.ok() && !s.IsAlreadyExists()) inner = s;
  }));
  TMAN_RETURN_IF_ERROR(inner);
  org_ = std::move(fresh);
  return Status::OK();
}

Status SignatureIndexEntry::Insert(const PredicateEntry& entry) {
  OrgType wanted = PickOrgType(org_->size() + 1);
  if (wanted != org_->type()) {
    TMAN_RETURN_IF_ERROR(MigrateTo(wanted));
  }
  TMAN_RETURN_IF_ERROR(org_->Insert(entry));
  version_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SignatureIndexEntry::Remove(ExprId expr_id) {
  TMAN_RETURN_IF_ERROR(org_->Remove(expr_id));
  version_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
  // Organizations are not downgraded on shrink: migration down would buy
  // little (the class already paid the upgrade) and churns on workloads
  // that hover near a threshold.
}

bool SignatureIndexEntry::EventMatches(const UpdateDescriptor& token) const {
  if (!OpMatches(ctx_.signature.op, token.op)) return false;
  if (update_col_fields_.empty() || token.op != OpCode::kUpdate) return true;
  if (!token.old_tuple.has_value() || !token.new_tuple.has_value()) {
    return false;
  }
  for (size_t f : update_col_fields_) {
    if (f < token.old_tuple->size() && f < token.new_tuple->size() &&
        token.old_tuple->at(f) != token.new_tuple->at(f)) {
      return true;
    }
  }
  return false;
}

Probe SignatureIndexEntry::ProbeOf(const Tuple& tuple) const {
  return Probe::Of(tuple, eq_fields_, range_field_);
}

Status SignatureIndexEntry::Match(
    const UpdateDescriptor& token, uint32_t partition, uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn) const {
  if (!EventMatches(token)) return Status::OK();
  return MatchTuple(token.EffectiveTuple(), partition, num_partitions, fn);
}

Status SignatureIndexEntry::MatchTuple(
    const Tuple& tuple, uint32_t partition, uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn) const {
  const bool track = runtime_stats::enabled();
  if (track) probes_.Increment();
  if (tuple.size() < min_width_) return Status::OK();
  const Probe probe = ProbeOf(tuple);

  Status inner = Status::OK();
  auto test = [&](const PredicateEntry& e) {
    if (!inner.ok()) return;
    candidates_tested_.Increment();
    if (ctx_.split.rest != nullptr) {
      Result<bool> pass = TestRest(tuple, e.constants);
      if (!pass.ok()) {
        inner = pass.status();
        return;
      }
      if (!*pass) return;
    }
    if (track) matches_.Increment();
    fn(PredicateMatch{e.trigger_id, e.expr_id, e.next_node});
  };
  TMAN_RETURN_IF_ERROR(num_partitions <= 1
                           ? org_->Match(probe, test)
                           : org_->MatchPartition(probe, partition,
                                                  num_partitions, test));
  return inner;
}

void SignatureIndexEntry::MatchBatch(
    const UpdateDescriptor* tokens, const uint32_t* lanes, size_t num_lanes,
    uint32_t partition, uint32_t num_partitions,
    const std::function<void(size_t, const PredicateMatch&)>& fn,
    Status* lane_status) const {
  // Passes 1 and 2: event-condition filter (opcode + changed columns),
  // then every surviving lane's probe, in one tight pass before the
  // organization sees any of them. A lane whose tuple is narrower than
  // the indexed fields silently drops out, as in the scalar path.
  struct LaneProbe {
    uint32_t lane;
    Probe probe;
  };
  std::vector<LaneProbe> probes;
  probes.reserve(num_lanes);
  for (size_t i = 0; i < num_lanes; ++i) {
    const uint32_t lane = lanes[i];
    if (!EventMatches(tokens[lane])) continue;
    const Tuple& tuple = tokens[lane].EffectiveTuple();
    if (tuple.size() < min_width_) continue;
    probes.push_back({lane, ProbeOf(tuple)});
  }
  if (probes.empty()) return;

  // Pass 3: consult the organization per lane, collecting candidates in
  // organization order. Candidates of one lane are contiguous and
  // ordered, which is what lets pass 5 replay the scalar path's emission
  // and error order exactly. A candidate borrows its entry's constants:
  // memory organizations keep their entries in place under the stripe's
  // shared lock, while database organizations materialize a transient
  // entry per candidate, so those constants are copied into `owned`.
  struct Candidate {
    uint32_t lane = 0;
    PredicateMatch match;
    const Tuple* tuple = nullptr;
    const Tuple* constants = nullptr;
    int8_t verdict = 1;  // 1 = pass (pass 4 may change it), 0 = fail,
                         // -1 = error (see errors)
    uint32_t error_at = 0;
  };
  const bool has_rest = ctx_.split.rest != nullptr;
  const bool transient = org_->type() == OrgType::kDbTable ||
                         org_->type() == OrgType::kDbIndexedTable;
  std::vector<Candidate> cands;
  std::vector<Tuple> owned;
  std::vector<Status> errors;
  // Rare per-lane organization failures (database orgs only), applied
  // after the lane's already-collected candidates are processed — the
  // scalar path, too, emits matches streamed before the org error.
  std::vector<std::pair<uint32_t, Status>> org_errors;
  const bool track = runtime_stats::enabled();
  if (track) probes_.Add(probes.size());
  for (const LaneProbe& lp : probes) {
    const uint32_t lane = lp.lane;
    const Tuple* tuple = lp.probe.tuple;
    auto collect = [&](const PredicateEntry& e) {
      Candidate c;
      c.lane = lane;
      c.match = PredicateMatch{e.trigger_id, e.expr_id, e.next_node};
      c.tuple = tuple;
      if (has_rest && transient) {
        owned.push_back(e.constants);
      } else if (has_rest) {
        c.constants = &e.constants;
      }
      cands.push_back(c);
    };
    Status s = num_partitions <= 1
                   ? org_->Match(lp.probe, collect)
                   : org_->MatchPartition(lp.probe, partition,
                                          num_partitions, collect);
    if (!s.ok()) org_errors.emplace_back(lane, std::move(s));
  }
  if (has_rest && transient) {
    for (size_t k = 0; k < cands.size(); ++k) cands[k].constants = &owned[k];
  }

  // Pass 4: test the rest of the predicate. Every candidate of every lane
  // is one lane of a single EvalBatch of the class's program, with the
  // candidate's constants bound to the second slot. A template the
  // compiler refused runs through the interpreter per candidate, exactly
  // as the scalar path does.
  auto fail = [&](Candidate& c, Status s) {
    c.verdict = -1;
    c.error_at = static_cast<uint32_t>(errors.size());
    errors.push_back(std::move(s));
  };
  if (has_rest && rest_program_ != nullptr && !cands.empty()) {
    TokenBatch batch(2);
    for (const Candidate& c : cands) batch.Append(c.tuple, c.constants);
    BatchResult result;
    Status s = rest_program_->EvalBatch(batch, &result);
    for (size_t k = 0; k < cands.size(); ++k) {
      if (!s.ok()) {
        fail(cands[k], s);
      } else if (!result.ok(k)) {
        fail(cands[k], result.status(k));
      } else {
        cands[k].verdict = result.Truth(k) ? 1 : 0;
      }
    }
  } else if (has_rest) {
    for (Candidate& c : cands) {
      Result<bool> pass = TestRest(*c.tuple, *c.constants);
      if (!pass.ok()) {
        fail(c, pass.status());
      } else {
        c.verdict = *pass ? 1 : 0;
      }
    }
  }

  // Pass 5: emit in collection order. Each lane streams its matches until
  // its first error, which stops that lane — the candidate that errors is
  // still counted as tested, matching the scalar counter.
  // Counter writes amortize to one Add per batch — at per-candidate
  // granularity the two sharded-counter RMWs cost a measurable few
  // percent of the ~200ns/token hash path (bench_adapt's overhead gate).
  uint64_t tested = 0;
  uint64_t matched = 0;
  for (const Candidate& c : cands) {
    if (!lane_status[c.lane].ok()) continue;
    ++tested;
    if (c.verdict < 0) {
      lane_status[c.lane] = errors[c.error_at];
    } else if (c.verdict > 0) {
      ++matched;
      fn(c.lane, c.match);
    }
  }
  if (tested != 0) candidates_tested_.Add(tested);
  if (track && matched != 0) matches_.Add(matched);
  for (auto& [lane, s] : org_errors) {
    if (lane_status[lane].ok()) lane_status[lane] = std::move(s);
  }
}

Result<bool> SignatureIndexEntry::TestRest(const Tuple& tuple,
                                           const Tuple& constants) const {
  if (rest_program_ != nullptr) {
    const Tuple* tuples[] = {&tuple, &constants};
    return rest_program_->EvalBool(tuples, 2);
  }
  TMAN_ASSIGN_OR_RETURN(ExprPtr bound,
                        BindPlaceholders(ctx_.split.rest, constants.values()));
  Bindings b;
  b.Bind(std::string(SignatureVarName()), &schema_, &tuple);
  return EvalPredicate(bound, b);
}

SignatureRuntimeStats SignatureIndexEntry::RuntimeStats() const {
  SignatureRuntimeStats st;
  st.sig_id = ctx_.sig_id;
  st.description = ctx_.signature.Description();
  st.org = org_->type();
  st.class_size = org_->size();
  st.has_range = ctx_.split.has_range;
  st.probes = probes_.Read();
  st.candidates = candidates_tested_.Read();
  st.matches = matches_.Read();
  st.version = version_.load(std::memory_order_relaxed);
  st.org_switches = org_switches_.load(std::memory_order_relaxed);
  return st;
}

Status SignatureIndexEntry::SnapshotEntries(
    std::vector<PredicateEntry>* out) const {
  out->clear();
  out->reserve(org_->size());
  return org_->ForEach(
      [out](const PredicateEntry& e) { out->push_back(e); });
}

Result<std::unique_ptr<ConstantSetOrganization>>
SignatureIndexEntry::BuildOrganization(
    OrgType type, const std::vector<PredicateEntry>& entries) const {
  if (type != OrgType::kMemoryList && type != OrgType::kMemoryIndex) {
    return Status::InvalidArgument(
        "adaptive rebuild supports main-memory organizations only");
  }
  TMAN_ASSIGN_OR_RETURN(std::unique_ptr<ConstantSetOrganization> fresh,
                        CreateOrganization(type, &ctx_, db_));
  for (const PredicateEntry& e : entries) {
    TMAN_RETURN_IF_ERROR(fresh->Insert(e));
  }
  return fresh;
}

Status SignatureIndexEntry::InstallOrganization(
    std::unique_ptr<ConstantSetOrganization> org, uint64_t expected_version) {
  if (org == nullptr) {
    return Status::InvalidArgument("null organization");
  }
  if (version_.load(std::memory_order_relaxed) != expected_version) {
    return Status::Aborted(
        "signature class changed during offside rebuild");
  }
  // Version match implies the class content is exactly the snapshot the
  // rebuild consumed; the size check is a defensive invariant.
  if (org->size() != org_->size()) {
    return Status::Internal("offside organization size mismatch");
  }
  org_ = std::move(org);
  adaptive_pin_.store(static_cast<int>(org_->type()),
                      std::memory_order_relaxed);
  org_switches_.fetch_add(1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

SignatureIndexEntry* DataSourcePredicateIndex::FindBySigId(
    uint64_t sig_id) const {
  for (const auto& e : entries_) {
    if (e->context().sig_id == sig_id) return e.get();
  }
  return nullptr;
}

Result<SignatureIndexEntry*> DataSourcePredicateIndex::FindOrCreate(
    const ExpressionSignature& signature, const IndexableSplit& split,
    uint64_t sig_id, const Tuple& constants, bool* created) {
  uint64_t h = signature.Hash();
  auto it = by_hash_.find(h);
  if (it != by_hash_.end()) {
    for (size_t idx : it->second) {
      if (entries_[idx]->context().signature.Equals(signature)) {
        *created = false;
        return entries_[idx].get();
      }
    }
  }
  SignatureContext ctx;
  ctx.signature = signature;
  ctx.split = split;
  ctx.sig_id = sig_id;
  auto entry =
      std::make_unique<SignatureIndexEntry>(std::move(ctx), db_, policy_);
  TMAN_RETURN_IF_ERROR(entry->Open(schema_, constants));
  entries_.push_back(std::move(entry));
  by_hash_[h].push_back(entries_.size() - 1);
  *created = true;
  return entries_.back().get();
}

Status DataSourcePredicateIndex::Match(
    const UpdateDescriptor& token, uint32_t partition,
    uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn) const {
  for (const auto& entry : entries_) {
    TMAN_RETURN_IF_ERROR(entry->Match(token, partition, num_partitions, fn));
  }
  return Status::OK();
}

void DataSourcePredicateIndex::MatchBatch(
    const UpdateDescriptor* tokens, const uint32_t* lanes, size_t num_lanes,
    uint32_t partition, uint32_t num_partitions,
    const std::function<void(size_t, const PredicateMatch&)>& fn,
    Status* lane_status) const {
  if (num_lanes == 0) return;
  // The scalar path stops a token at its first failing entry; lanes that
  // error drop out of the scan for the remaining signatures.
  std::vector<uint32_t> active(lanes, lanes + num_lanes);
  std::vector<uint32_t> still_ok;
  for (const auto& entry : entries_) {
    if (active.empty()) return;
    entry->MatchBatch(tokens, active.data(), active.size(), partition,
                      num_partitions, fn, lane_status);
    still_ok.clear();
    for (uint32_t lane : active) {
      if (lane_status[lane].ok()) still_ok.push_back(lane);
    }
    active.swap(still_ok);
  }
}

Status DataSourcePredicateIndex::MatchTuple(
    const Tuple& tuple, uint32_t partition, uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn) const {
  for (const auto& entry : entries_) {
    TMAN_RETURN_IF_ERROR(
        entry->MatchTuple(tuple, partition, num_partitions, fn));
  }
  return Status::OK();
}

}  // namespace tman
