#include "core/aggregates.h"

#include <array>
#include <bit>
#include <cstring>

#include "expr/rewrite.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace tman {

namespace {

/// The type tag of a value's encoding (Tuple::Serialize's).
uint64_t TypeTag(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int()) return 1;
  if (v.is_float()) return 2;
  return 3;
}

/// Group identity: equal type tags and equal encodings. Unlike Value
/// equality, Int(1) is not Float(1.0), and floats compare by bits.
bool SameEncoding(const Value& a, const Value& b) {
  if (TypeTag(a) != TypeTag(b)) return false;
  if (a.is_int()) return a.as_int() == b.as_int();
  if (a.is_float()) {
    double x = a.as_float(), y = b.as_float();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  if (a.is_string()) return a.as_string() == b.as_string();
  return true;  // both NULL
}

uint64_t KeyHash(const Value* key, size_t n) {
  uint64_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, HashCombine(TypeTag(key[i]), key[i].Hash()));
  }
  return h;
}

uint64_t ShapeHash(const AggregateShapeKey& key) {
  uint64_t h = HashCombine(MixInt(key.source), key.partition);
  h = HashCombine(h, HashString(key.var));
  for (const ExprPtr& e : key.group_by) h = HashCombine(h, ExprHash(e));
  for (const AggSpec& call : key.calls) {
    h = HashCombine(h, static_cast<uint64_t>(call.kind));
    h = HashCombine(h, call.arg == nullptr ? 0 : ExprHash(call.arg));
  }
  return h;
}

bool SameShape(const AggregateShapeKey& a, const AggregateShapeKey& b) {
  if (a.source != b.source || a.partition != b.partition || a.var != b.var ||
      !(a.schema == b.schema) || a.group_by.size() != b.group_by.size() ||
      a.calls.size() != b.calls.size()) {
    return false;
  }
  for (size_t i = 0; i < a.group_by.size(); ++i) {
    if (!ExprEquals(a.group_by[i], b.group_by[i])) return false;
  }
  for (size_t i = 0; i < a.calls.size(); ++i) {
    if (a.calls[i].kind != b.calls[i].kind ||
        !ExprEquals(a.calls[i].arg, b.calls[i].arg)) {
      return false;
    }
  }
  return true;
}

/// Replaces aggregate calls in `e` with placeholders, appending new calls
/// to `calls` (structurally equal calls share one).
Result<ExprPtr> ExtractAggregates(const ExprPtr& e,
                                  std::vector<AggSpec>* calls) {
  if (e == nullptr) return e;
  if (e->kind == ExprKind::kFunctionCall) {
    auto kind = AggKindFromName(e->func_name);
    if (kind.ok()) {
      if (e->children.size() > 1) {
        return Status::InvalidArgument(e->func_name +
                                       " takes at most one argument");
      }
      AggSpec spec;
      spec.kind = *kind;
      spec.arg = e->children.empty() ? nullptr : e->children[0];
      if (*kind != AggKind::kCount && spec.arg == nullptr) {
        return Status::InvalidArgument(e->func_name +
                                       " requires an argument");
      }
      for (size_t i = 0; i < calls->size(); ++i) {
        if ((*calls)[i].kind == spec.kind &&
            ExprEquals((*calls)[i].arg, spec.arg)) {
          return MakePlaceholder(static_cast<int>(i + 1));
        }
      }
      calls->push_back(std::move(spec));
      return MakePlaceholder(static_cast<int>(calls->size()));
    }
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& c : e->children) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr nc, ExtractAggregates(c, calls));
    changed = changed || nc != c;
    children.push_back(std::move(nc));
  }
  if (!changed) return e;
  auto out = std::make_shared<Expr>(*e);
  out->children = std::move(children);
  return ExprPtr(out);
}

/// A run of values, inline up to a few: a tuple's group key, aggregate
/// arguments or aggregate values.
class ValueBuffer {
 public:
  explicit ValueBuffer(size_t n) : size_(n) {
    if (n > kInline) heap_.resize(n);
  }
  Value* data() { return size_ > kInline ? heap_.data() : inline_.data(); }
  Value& operator[](size_t i) { return data()[i]; }

 private:
  static constexpr size_t kInline = 8;
  std::array<Value, kInline> inline_;
  std::vector<Value> heap_;
  size_t size_;
};

}  // namespace

Result<AggKind> AggKindFromName(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  return Status::NotFound("not an aggregate: " + std::string(name));
}

Result<AggregateClauses> AggregateClauses::Extract(
    const ExprPtr& having, const std::vector<ExprPtr>& action_args) {
  AggregateClauses out;
  TMAN_ASSIGN_OR_RETURN(out.having, ExtractAggregates(having, &out.calls));
  for (const ExprPtr& arg : action_args) {
    TMAN_ASSIGN_OR_RETURN(ExprPtr t, ExtractAggregates(arg, &out.calls));
    out.action_args.push_back(std::move(t));
  }
  return out;
}

// ---------------------------------------------------------------------------
// AggregateShape
// ---------------------------------------------------------------------------

AggregateShape::AggregateShape(AggregateShapeKey key) : key_(std::move(key)) {
  BindingLayout layout;
  layout.Add(key_.var, &key_.schema);
  for (const ExprPtr& e : key_.group_by) {
    group_by_programs_.push_back(TryCompilePredicate(e, layout));
  }
  for (const AggSpec& call : key_.calls) {
    arg_programs_.push_back(
        call.arg == nullptr ? nullptr : TryCompilePredicate(call.arg, layout));
    const bool extreme =
        call.kind == AggKind::kMin || call.kind == AggKind::kMax;
    extreme_of_.push_back(extreme ? static_cast<int>(num_extremes_++) : -1);
  }
}

uint32_t AggregateShape::Attach(const ExprPtr& having) {
  std::shared_ptr<const CompiledPredicate> program;
  if (having != nullptr) {
    // The aggregate placeholders become VM parameter loads.
    BindingLayout layout;
    layout.Add(key_.var, &key_.schema);
    CompileOptions opts;
    opts.allow_params = true;
    program = TryCompilePredicate(having, layout, opts);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t id;
  if (free_slots_.empty()) {
    id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    id = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[id];
  slot.attached = true;
  slot.having = having;
  slot.program = std::move(program);
  ++attached_;
  return id;
}

void AggregateShape::Detach(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= slots_.size() || !slots_[id].attached) return;
  Slot& slot = slots_[id];
  for (const Cell& cell : slot.cells) {
    if (cell.group == kNone) continue;
    if (--groups_[cell.group].holders == 0) FreeGroup(cell.group);
  }
  slot = Slot{};  // releases its arrays
  free_slots_.push_back(id);
  --attached_;
}

// --- IdTable -----------------------------------------------------------------

size_t AggregateShape::IdTable::Home(uint64_t hash) const {
  // Fibonacci hashing: the top bits of the product spread keys whose
  // hashes differ only in a few bits (group ids are their own hash).
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
}

void AggregateShape::IdTable::Grow() {
  std::vector<Entry> old = std::move(entries_);
  const size_t capacity = old.empty() ? 8 : old.size() * 2;
  entries_.assign(capacity, Entry{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Entry& e : old) {
    if (e.id == kNone) continue;
    size_t i = Home(e.hash);
    while (entries_[i].id != kNone) i = (i + 1) & mask;
    entries_[i] = e;
  }
}

void AggregateShape::IdTable::Insert(uint64_t hash, uint32_t id) {
  if ((size_ + 1) * 4 > entries_.size() * 3) Grow();
  const size_t mask = entries_.size() - 1;
  size_t i = Home(hash);
  while (entries_[i].id != kNone) i = (i + 1) & mask;
  entries_[i] = Entry{hash, id};
  ++size_;
}

void AggregateShape::IdTable::Erase(uint64_t hash, uint32_t id) {
  const size_t mask = entries_.size() - 1;
  size_t hole = Home(hash);
  while (entries_[hole].id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the run into the
  // hole when that keeps it between its home and where it was.
  for (size_t i = (hole + 1) & mask; entries_[i].id != kNone;
       i = (i + 1) & mask) {
    const size_t home = Home(entries_[i].hash);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      entries_[hole] = entries_[i];
      hole = i;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

// --- groups and cells --------------------------------------------------------

uint32_t AggregateShape::FindGroup(uint64_t hash, const Value* key) const {
  return dictionary_.Find(hash, [&](uint32_t group) {
    const std::vector<Value>& stored = groups_[group].key;
    for (size_t k = 0; k < stored.size(); ++k) {
      if (!SameEncoding(stored[k], key[k])) return false;
    }
    return true;
  });
}

uint32_t AggregateShape::AddGroup(uint64_t hash, const Value* key) {
  uint32_t id;
  if (free_groups_.empty()) {
    id = static_cast<uint32_t>(groups_.size());
    groups_.emplace_back();
  } else {
    id = free_groups_.back();
    free_groups_.pop_back();
  }
  Group& g = groups_[id];
  g.key.assign(key, key + key_.group_by.size());
  g.hash = hash;
  g.holders = 0;
  dictionary_.Insert(hash, id);
  return id;
}

void AggregateShape::FreeGroup(uint32_t id) {
  dictionary_.Erase(groups_[id].hash, id);
  groups_[id].key.clear();
  free_groups_.push_back(id);
}

uint32_t AggregateShape::FindCell(const Slot& slot, uint32_t group) const {
  return slot.held.Find(group, [](uint32_t) { return true; });
}

uint32_t AggregateShape::HoldGroup(Slot* slot, uint32_t group) {
  uint32_t cell;
  if (slot->free_cells.empty()) {
    cell = static_cast<uint32_t>(slot->cells.size());
    slot->cells.emplace_back();
    slot->counters.resize(slot->counters.size() + num_calls());
    slot->extremes.resize(slot->extremes.size() + num_extremes_);
  } else {
    cell = slot->free_cells.back();
    slot->free_cells.pop_back();
  }
  slot->cells[cell].group = group;
  slot->held.Insert(group, cell);
  ++groups_[group].holders;
  return cell;
}

void AggregateShape::ReleaseCell(Slot* slot, uint32_t cell) {
  const uint32_t group = slot->cells[cell].group;
  slot->held.Erase(group, cell);
  --groups_[group].holders;
  // A released cell starts empty when it is reused.
  slot->cells[cell] = Cell{};
  for (size_t c = 0; c < num_calls(); ++c) {
    slot->counters[cell * num_calls() + c] = Counter{};
  }
  for (size_t e = 0; e < num_extremes_; ++e) {
    slot->extremes[cell * num_extremes_ + e].clear();
  }
  slot->free_cells.push_back(cell);
}

void AggregateShape::Update(Slot* slot, uint32_t cell, bool add,
                            const Value* args) {
  Cell& state = slot->cells[cell];
  if (add) {
    ++state.rows;
  } else if (state.rows > 0) {
    --state.rows;
  }
  for (size_t c = 0; c < num_calls(); ++c) {
    Counter& counter = slot->counters[cell * num_calls() + c];
    if (key_.calls[c].arg == nullptr) {  // count(*)
      if (add) {
        ++counter.count;
      } else if (counter.count > 0) {
        --counter.count;
      }
      continue;
    }
    const Value& v = args[c];
    if (v.is_null()) continue;  // SQL: aggregates skip NULLs
    if (add) {
      ++counter.count;
      if (v.is_numeric()) counter.sum += v.AsDouble();
    } else {
      if (counter.count > 0) --counter.count;
      if (v.is_numeric()) counter.sum -= v.AsDouble();
    }
    if (extreme_of_[c] >= 0) {
      std::multiset<Value>& values =
          slot->extremes[cell * num_extremes_ +
                         static_cast<size_t>(extreme_of_[c])];
      if (add) {
        values.insert(v);
      } else {
        auto it = values.find(v);
        if (it != values.end()) values.erase(it);
      }
    }
  }
}

void AggregateShape::CurrentValues(const Slot& slot, uint32_t cell,
                                   Value* out) const {
  for (size_t c = 0; c < num_calls(); ++c) {
    const Counter& counter = slot.counters[cell * num_calls() + c];
    Value& v = out[c];
    switch (key_.calls[c].kind) {
      case AggKind::kCount:
        v.SetInt(counter.count);
        break;
      case AggKind::kSum:
        v.SetFloat(counter.sum);
        break;
      case AggKind::kAvg:
        if (counter.count == 0) {
          v.SetNull();
        } else {
          v.SetFloat(counter.sum / static_cast<double>(counter.count));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const std::multiset<Value>& values =
            slot.extremes[cell * num_extremes_ +
                          static_cast<size_t>(extreme_of_[c])];
        if (values.empty()) {
          v.SetNull();
        } else {
          v = key_.calls[c].kind == AggKind::kMin ? *values.begin()
                                                  : *values.rbegin();
        }
        break;
      }
    }
  }
}

Result<bool> AggregateShape::HavingTrue(const Slot& slot, const Tuple& tuple,
                                        const Value* values) const {
  if (slot.having == nullptr) return true;
  if (slot.program != nullptr) {
    const Tuple* tuples[] = {&tuple};
    return slot.program->EvalBool(tuples, 1, values, num_calls());
  }
  TMAN_ASSIGN_OR_RETURN(
      ExprPtr bound,
      BindPlaceholders(slot.having,
                       std::vector<Value>(values, values + num_calls())));
  Bindings b;
  b.Bind(key_.var, &key_.schema, &tuple);
  return EvalPredicate(bound, b);
}

Result<Value> AggregateShape::Eval(
    const std::shared_ptr<const CompiledPredicate>& program,
    const ExprPtr& expr, const Tuple& tuple) const {
  if (program != nullptr) {
    const Tuple* tuples[] = {&tuple};
    return program->EvalValue(tuples, 1);
  }
  Bindings b;
  b.Bind(key_.var, &key_.schema, &tuple);
  return EvalExpr(expr, b);
}

Status AggregateShape::Apply(const Tuple& tuple, bool add,
                             const uint32_t* slots, size_t n,
                             std::vector<Firing>* firings) {
  if (n == 0) return Status::OK();
  const size_t width = key_.group_by.size();
  ValueBuffer key(width);
  for (size_t i = 0; i < width; ++i) {
    TMAN_ASSIGN_OR_RETURN(
        key[i], Eval(group_by_programs_[i], key_.group_by[i], tuple));
  }
  const uint64_t hash = KeyHash(key.data(), width);
  ValueBuffer args(num_calls());
  bool have_args = false;
  ValueBuffer values(num_calls());

  std::lock_guard<std::mutex> lock(mutex_);
  uint32_t group = FindGroup(hash, key.data());
  if (group == kNone) {
    if (!add) return Status::OK();  // removing from an unseen group
    group = AddGroup(hash, key.data());
  }
  Status status = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots_[slots[i]];
    uint32_t cell = FindCell(slot, group);
    if (!add && cell == kNone) continue;  // this slot never saw the group
    if (!have_args) {
      // Evaluated once, by the first slot that needs them.
      for (size_t c = 0; c < num_calls() && status.ok(); ++c) {
        if (key_.calls[c].arg == nullptr) continue;
        Result<Value> v = Eval(arg_programs_[c], key_.calls[c].arg, tuple);
        if (v.ok()) {
          args[c] = std::move(*v);
        } else {
          status = v.status();
        }
      }
      if (!status.ok()) break;
      have_args = true;
    }
    if (cell == kNone) cell = HoldGroup(&slot, group);
    Update(&slot, cell, add, args.data());
    CurrentValues(slot, cell, values.data());
    Result<bool> now_true = HavingTrue(slot, tuple, values.data());
    Cell& state = slot.cells[cell];
    if (now_true.ok()) {
      if (*now_true && !state.was_true) {
        firings->push_back(Firing{
            i, std::vector<Value>(values.data(), values.data() + num_calls())});
      }
      state.was_true = *now_true;
    } else {
      status = now_true.status();  // the counts keep the tuple's change
    }
    // Held exactly while live, on the error path too.
    if (!state.live()) ReleaseCell(&slot, cell);
    if (!status.ok()) break;
  }
  if (groups_[group].holders == 0) FreeGroup(group);
  return status;
}

size_t AggregateShape::num_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_.size() - free_groups_.size();
}

size_t AggregateShape::num_groups(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id < slots_.size() ? slots_[id].held.size() : 0;
}

size_t AggregateShape::num_slots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attached_;
}

// ---------------------------------------------------------------------------
// AggregateShapeRegistry
// ---------------------------------------------------------------------------

AggregateRef AggregateShapeRegistry::Attach(const AggregateShapeKey& key,
                                            const ExprPtr& having) {
  const uint64_t hash = ShapeHash(key);
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<AggregateShape> shape;
  auto [begin, end] = by_key_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (SameShape(it->second->key(), key)) {
      shape = it->second;
      break;
    }
  }
  if (shape == nullptr) {
    shape = std::make_shared<AggregateShape>(key);
    by_key_.emplace(hash, shape);
  }
  const uint32_t slot = shape->Attach(having);
  return AggregateRef{std::move(shape), slot};
}

void AggregateShapeRegistry::Detach(const AggregateRef& ref) {
  if (ref.shape == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ref.shape->Detach(ref.slot);
  if (ref.shape->num_slots() > 0) return;
  auto [begin, end] = by_key_.equal_range(ShapeHash(ref.shape->key()));
  for (auto it = begin; it != end; ++it) {
    if (it->second == ref.shape) {
      by_key_.erase(it);
      return;
    }
  }
}

AggregateShapeStats AggregateShapeRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AggregateShapeStats st;
  for (const auto& [hash, shape] : by_key_) {
    ++st.shapes;
    st.triggers += shape->num_slots();
    st.groups += shape->num_groups();
  }
  return st;
}

}  // namespace tman
