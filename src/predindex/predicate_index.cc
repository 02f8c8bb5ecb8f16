#include "predindex/predicate_index.h"

#include <algorithm>

#include "expr/signature.h"
#include "util/hash.h"

namespace tman {

PredicateIndex::PredicateIndex(Database* db, OrgPolicy policy,
                               uint32_t num_stripes)
    : db_(db), policy_(policy) {
  if (num_stripes == 0) num_stripes = 16;
  stripes_.reserve(num_stripes);
  for (uint32_t i = 0; i < num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

uint32_t PredicateIndex::StripeOf(DataSourceId id) const {
  // Data source ids are small and sequential; mix them so neighboring
  // sources land on different stripes.
  return static_cast<uint32_t>(MixInt(static_cast<uint64_t>(id)) %
                               stripes_.size());
}

PredicateIndex::Stripe& PredicateIndex::StripeFor(DataSourceId id) const {
  return *stripes_[StripeOf(id)];
}

Status PredicateIndex::RegisterDataSource(DataSourceId id,
                                          const Schema& schema) {
  Stripe& stripe = StripeFor(id);
  std::unique_lock lock(stripe.mutex);
  if (stripe.sources.count(id) > 0) {
    return Status::AlreadyExists("data source " + std::to_string(id) +
                                 " already registered");
  }
  stripe.sources[id] =
      std::make_unique<DataSourcePredicateIndex>(id, schema, db_, policy_);
  return Status::OK();
}

bool PredicateIndex::HasDataSource(DataSourceId id) const {
  Stripe& stripe = StripeFor(id);
  std::shared_lock lock(stripe.mutex);
  return stripe.sources.count(id) > 0;
}

Result<AddPredicateInfo> PredicateIndex::AddPredicate(
    const PredicateSpec& spec) {
  // §5.1 step 5: generalize the predicate into (signature, constants).
  // Pure tree work — done before any lock so the stripe's exclusive
  // section covers only the index mutation itself.
  GeneralizedPredicate gen;
  if (spec.predicate != nullptr) {
    TMAN_ASSIGN_OR_RETURN(
        gen, GeneralizePredicate(spec.data_source, spec.op, spec.predicate));
  } else {
    gen.signature.data_source = spec.data_source;
    gen.signature.op = spec.op;
    gen.signature.generalized = nullptr;  // unconditional
    gen.signature.num_constants = 0;
  }
  gen.signature.update_columns = spec.update_columns;

  IndexableSplit split = SplitIndexable(gen.signature.generalized);

  // Reserve ids outside the stripe lock. A sig id reserved for a
  // signature that turns out to already exist is simply never used —
  // ids only need to be unique, not dense.
  const uint64_t reserved_sig_id =
      next_sig_id_.fetch_add(1, std::memory_order_relaxed);
  const ExprId expr_id = next_expr_id_.fetch_add(1, std::memory_order_relaxed);

  PredicateEntry pe;
  pe.expr_id = expr_id;
  pe.trigger_id = spec.trigger_id;
  pe.next_node = spec.next_node;
  pe.constants = Tuple(gen.constants);

  Stripe& stripe = StripeFor(spec.data_source);
  AddPredicateInfo info;
  SignatureIndexEntry* entry = nullptr;
  {
    std::unique_lock lock(stripe.mutex);
    auto it = stripe.sources.find(spec.data_source);
    if (it == stripe.sources.end()) {
      return Status::NotFound("data source " +
                              std::to_string(spec.data_source) +
                              " not registered");
    }
    DataSourcePredicateIndex* src = it->second.get();

    bool created = false;
    TMAN_ASSIGN_OR_RETURN(
        entry, src->FindOrCreate(gen.signature, split, reserved_sig_id,
                                 pe.constants, &created));
    TMAN_RETURN_IF_ERROR(entry->Insert(pe));

    info.expr_id = pe.expr_id;
    info.sig_id = entry->context().sig_id;
    info.new_signature = created;
    info.org = entry->org_type();
    info.class_size = entry->size();
    info.signature_desc = entry->context().signature.Description();
    info.constants = std::move(gen.constants);
  }
  {
    std::lock_guard<std::mutex> lock(home_mutex_);
    predicate_home_[info.expr_id] = {spec.data_source, entry};
  }
  return info;
}

Status PredicateIndex::RemovePredicate(ExprId expr_id) {
  DataSourceId data_source = 0;
  SignatureIndexEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(home_mutex_);
    auto it = predicate_home_.find(expr_id);
    if (it == predicate_home_.end()) {
      return Status::NotFound("predicate " + std::to_string(expr_id) +
                              " not found");
    }
    data_source = it->second.first;
    entry = it->second.second;
  }
  Stripe& stripe = StripeFor(data_source);
  {
    std::unique_lock lock(stripe.mutex);
    TMAN_RETURN_IF_ERROR(entry->Remove(expr_id));
  }
  {
    std::lock_guard<std::mutex> lock(home_mutex_);
    predicate_home_.erase(expr_id);
  }
  return Status::OK();
}

Status PredicateIndex::Match(const UpdateDescriptor& token,
                             std::vector<PredicateMatch>* out) const {
  return MatchPartitioned(token, 0, 1, [out](const PredicateMatch& m) {
    out->push_back(m);
  });
}

Status PredicateIndex::MatchPartitioned(
    const UpdateDescriptor& token, uint32_t partition,
    uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn) const {
  Stripe& stripe = StripeFor(token.data_source);
  std::shared_lock lock(stripe.mutex);
  tokens_processed_.fetch_add(1, std::memory_order_relaxed);
  auto it = stripe.sources.find(token.data_source);
  if (it == stripe.sources.end()) return Status::OK();  // no triggers here
  uint64_t emitted = 0;
  Status s = it->second->Match(token, partition, num_partitions,
                               [&](const PredicateMatch& m) {
                                 ++emitted;
                                 fn(m);
                               });
  matches_emitted_.fetch_add(emitted, std::memory_order_relaxed);
  return s;
}

Status PredicateIndex::MatchBatch(
    const std::vector<UpdateDescriptor>& tokens, uint32_t partition,
    uint32_t num_partitions,
    const std::function<void(size_t, const PredicateMatch&)>& fn,
    std::vector<Status>* per_token) const {
  std::vector<Status> statuses(tokens.size());
  // Group lanes by data source so each (stripe, source) group pays one
  // shared-lock acquisition and one probe pass for all its tokens.
  // Lane order is preserved within a group, so per-token match order is
  // the scalar order.
  std::unordered_map<DataSourceId, std::vector<uint32_t>> groups;
  for (uint32_t lane = 0; lane < tokens.size(); ++lane) {
    groups[tokens[lane].data_source].push_back(lane);
  }
  for (auto& [source_id, lanes] : groups) {
    Stripe& stripe = StripeFor(source_id);
    std::shared_lock lock(stripe.mutex);
    tokens_processed_.fetch_add(lanes.size(), std::memory_order_relaxed);
    auto it = stripe.sources.find(source_id);
    if (it == stripe.sources.end()) continue;  // no triggers here
    uint64_t emitted = 0;
    it->second->MatchBatch(tokens.data(), lanes.data(), lanes.size(),
                           partition, num_partitions,
                           [&](size_t lane, const PredicateMatch& m) {
                             ++emitted;
                             fn(lane, m);
                           },
                           statuses.data());
    matches_emitted_.fetch_add(emitted, std::memory_order_relaxed);
  }
  Status first;
  for (const Status& s : statuses) {
    if (!s.ok()) {
      first = s;
      break;
    }
  }
  if (per_token != nullptr) *per_token = std::move(statuses);
  return first;
}

Status PredicateIndex::MatchMaintenance(
    DataSourceId data_source, const Tuple& tuple, uint32_t partition,
    uint32_t num_partitions,
    const std::function<void(const PredicateMatch&)>& fn,
    const std::function<Status()>& done) const {
  Stripe& stripe = StripeFor(data_source);
  std::shared_lock lock(stripe.mutex);
  auto it = stripe.sources.find(data_source);
  if (it == stripe.sources.end()) return Status::OK();
  TMAN_RETURN_IF_ERROR(
      it->second->MatchTuple(tuple, partition, num_partitions, fn));
  return done == nullptr ? Status::OK() : done();
}

PredicateIndexStats PredicateIndex::stats() const {
  PredicateIndexStats st;
  st.tokens_processed = tokens_processed_.load(std::memory_order_relaxed);
  st.matches_emitted = matches_emitted_.load(std::memory_order_relaxed);
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->mutex);
    for (const auto& [id, src] : stripe->sources) {
      st.num_signatures += src->entries().size();
      for (const auto& e : src->entries()) {
        st.num_predicates += e->size();
        if (e->rest_program() != nullptr) ++st.rest_programs;
      }
    }
  }
  return st;
}

std::vector<PredicateIndexStripeStats> PredicateIndex::stripe_stats() const {
  std::vector<PredicateIndexStripeStats> out;
  out.reserve(stripes_.size());
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->mutex);
    PredicateIndexStripeStats s;
    s.num_sources = stripe->sources.size();
    for (const auto& [id, src] : stripe->sources) {
      s.num_signatures += src->entries().size();
      for (const auto& e : src->entries()) s.num_predicates += e->size();
    }
    out.push_back(s);
  }
  return out;
}

std::vector<SignatureStatsReport> PredicateIndex::SignatureStats() const {
  std::vector<SignatureStatsReport> out;
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->mutex);
    for (const auto& [id, src] : stripe->sources) {
      for (const auto& e : src->entries()) {
        SignatureStatsReport r;
        r.source = id;
        r.stats = e->RuntimeStats();
        out.push_back(std::move(r));
      }
    }
  }
  return out;
}

SignatureIndexEntry* PredicateIndex::FindSignature(DataSourceId source,
                                                   uint64_t sig_id) const {
  Stripe& stripe = StripeFor(source);
  std::shared_lock lock(stripe.mutex);
  auto it = stripe.sources.find(source);
  if (it == stripe.sources.end()) return nullptr;
  return it->second->FindBySigId(sig_id);
}

Status PredicateIndex::WithStripeShared(
    DataSourceId source, const std::function<Status()>& fn) const {
  Stripe& stripe = StripeFor(source);
  std::shared_lock lock(stripe.mutex);
  return fn();
}

Status PredicateIndex::WithStripeExclusive(
    DataSourceId source, const std::function<Status()>& fn) {
  Stripe& stripe = StripeFor(source);
  std::unique_lock lock(stripe.mutex);
  return fn();
}

const DataSourcePredicateIndex* PredicateIndex::source(DataSourceId id) const {
  Stripe& stripe = StripeFor(id);
  std::shared_lock lock(stripe.mutex);
  auto it = stripe.sources.find(id);
  return it == stripe.sources.end() ? nullptr : it->second.get();
}

}  // namespace tman
