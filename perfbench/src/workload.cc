#include "perfbench/src/workload.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>

#include "util/random.h"

namespace perfbench {

using tman::DataType;
using tman::Random;
using tman::Schema;
using tman::Tuple;
using tman::UpdateDescriptor;
using tman::Value;

Schema QuoteSchema() {
  return Schema({{"id", DataType::kInt},
                 {"sym", DataType::kVarchar},
                 {"price", DataType::kInt},
                 {"vol", DataType::kInt}});
}

Schema RowSchema() {
  return Schema({{"id", DataType::kInt},
                 {"k", DataType::kInt},
                 {"cat", DataType::kInt},
                 {"g", DataType::kInt},
                 {"v", DataType::kInt}});
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec sel;
    sel.name = "memory_selection";
    sel.selection_triggers = 100000;
    sel.symbols = 20000;
    sel.zipf_theta = 1.2;
    sel.warmup_quotes = 16384;
    sel.tokens_per_second_of_run = 14000;
    sel.offered_rate = 15000;
    sel.window_tasks = 48;
    sel.sample_every = 10;
    w.push_back(sel);

    WorkloadSpec dur;
    dur.name = "durable_mixed";
    dur.durable = true;
    dur.selection_triggers = 9700;
    dur.join_triggers = 200;
    dur.aggregate_triggers = 100;
    dur.symbols = 1940;
    dur.zipf_theta = 0.99;
    dur.join_share = 0.2;
    dur.tokens_per_second_of_run = 10500;
    dur.offered_rate = 10000;
    dur.window_tasks = 1024;
    dur.backlog_batches = 200;
    dur.sample_every = 2;
    w.push_back(dur);

    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

std::string Num(int64_t v) { return std::to_string(v); }

/// Appends `token` to the last batch of `out`, opening a new batch every
/// kBatchTokens tokens.
void Append(std::vector<Batch>* out, UpdateDescriptor token) {
  if (out->empty() || out->back().size() == kBatchTokens) {
    out->emplace_back();
    out->back().reserve(kBatchTokens);
  }
  out->back().push_back(std::move(token));
}

/// One join source (orders or fills). Its static partner rows use one key
/// parity and its stream rows the other, and the other source does the
/// reverse: every stream row's join partners are static rows, so which
/// triggers a token fires does not depend on the order tokens are
/// processed in, however the drivers interleave them.
class JoinSide {
 public:
  JoinSide(tman::DataSourceId ds, int64_t partner_parity)
      : ds_(ds), partner_parity_(partner_parity) {}

  Tuple Row(int64_t id, int64_t key, Random* rng) const {
    return Tuple({Value::Int(id), Value::Int(key),
                  Value::Int(static_cast<int64_t>(
                      rng->Uniform(uint64_t{kCategories}))),
                  Value::Int(static_cast<int64_t>(
                      rng->Uniform(uint64_t{kGroups}))),
                  Value::Int(static_cast<int64_t>(rng->Uniform(100)))});
  }

  int64_t PartnerKey(int64_t m) const { return 2 * m + partner_parity_; }
  int64_t StreamKey(Random* rng) const {
    int64_t m = static_cast<int64_t>(
        rng->Uniform(uint64_t{kPreloadKeys}));
    return 2 * m + (1 - partner_parity_);
  }

  /// Static partner row for key index m.
  UpdateDescriptor Partner(int64_t id, int64_t m, Random* rng) {
    Tuple row = Row(id, PartnerKey(m), rng);
    return UpdateDescriptor::Insert(ds_, std::move(row));
  }

  /// A new stream row (ramp-up or steady insert).
  UpdateDescriptor InsertLive(int64_t id, Random* rng) {
    Tuple row = Row(id, StreamKey(rng), rng);
    live_.push_back(row);
    return UpdateDescriptor::Insert(ds_, std::move(row));
  }

  /// One steady-state token: update one of the older half of the live
  /// rows, else delete the oldest once the population is at its steady
  /// size, else insert. Deleted and updated rows are old enough that their
  /// insert finished long before, whatever the processing order.
  UpdateDescriptor Next(int64_t id, Random* rng, Tuple* removed,
                        Tuple* added) {
    *removed = Tuple();
    *added = Tuple();
    if (!live_.empty() && rng->Bernoulli(kUpdateShare)) {
      size_t pick = static_cast<size_t>(
          rng->Uniform(std::max<uint64_t>(1, live_.size() / 2)));
      Tuple old_row = live_[pick];
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
      Tuple new_row = Row(id, old_row.at(1).as_int(), rng);
      live_.push_back(new_row);
      *removed = old_row;
      *added = new_row;
      return UpdateDescriptor::Update(ds_, std::move(old_row),
                                      std::move(new_row));
    }
    if (live_.size() >= static_cast<size_t>(kLiveRows)) {
      Tuple old_row = live_.front();
      live_.pop_front();
      *removed = old_row;
      return UpdateDescriptor::Delete(ds_, std::move(old_row));
    }
    UpdateDescriptor u = InsertLive(id, rng);
    *added = *u.new_tuple;
    return u;
  }

 private:
  tman::DataSourceId ds_;
  int64_t partner_parity_;
  std::deque<Tuple> live_;
};

/// Live orders-row counts per (aggregate trigger, group), kept in stream
/// order to prove the having threshold stays crossed.
class AggregateCounts {
 public:
  explicit AggregateCounts(std::vector<int64_t> thresholds)
      : thresholds_(std::move(thresholds)),
        counts_(thresholds_.size() * kGroups, 0) {}

  void Apply(const Tuple& row, int delta) {
    if (row.empty()) return;
    int64_t g = row.at(3).as_int();
    int64_t v = row.at(4).as_int();
    for (size_t a = 0; a < thresholds_.size(); ++a) {
      if (v > thresholds_[a]) {
        counts_[a * kGroups + static_cast<size_t>(g)] +=
            delta;
      }
    }
  }

  int64_t Min() const {
    if (counts_.empty()) return std::numeric_limits<int64_t>::max();
    return *std::min_element(counts_.begin(), counts_.end());
  }

 private:
  std::vector<int64_t> thresholds_;
  std::vector<int64_t> counts_;
};

}  // namespace

Inputs Generate(const WorkloadSpec& spec, uint64_t seed, int seconds,
                const Sources& sources) {
  Inputs in;
  in.sources = sources;
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  // --- trigger population ---------------------------------------------------
  // The population's shape is fixed; the seed only jitters constants. Each
  // symbol gets one trigger of each of five kinds, so however skewed the
  // token symbols, firings per token hardly depend on the seed.
  const int symbols = std::max(1, spec.symbols);
  for (int i = 0; i < spec.selection_triggers; ++i) {
    std::string cond = "t.sym = 'S" + Num(i % symbols) + "'";
    auto jitter = [&](int64_t base, int64_t width) {
      return Num(base + static_cast<int64_t>(
                            rng.Uniform(static_cast<uint64_t>(width))));
    };
    switch ((i / symbols) % 5) {
      case 0:
        break;
      case 1:
        cond += " and t.price > " + jitter(400, 200);
        break;
      case 2:
        cond += " and t.price < " + jitter(400, 200);
        break;
      case 3:
        // Conjuncts over two attributes: no index can take them, so they
        // run as the rest of the predicate in the VM.
        cond += " and t.price > " + jitter(200, 100) +
                " and t.vol - t.price > " + jitter(-100, 200);
        break;
      default:
        cond += " and t.price < " + jitter(700, 100) + " and t.vol > t.price";
        break;
    }
    in.creates.push_back("create trigger s" + Num(i) + " from quotes t when " +
                         cond + " do raise event S(t.id, " + Num(i) + ")");
    in.selections.push_back({i, cond});
  }
  const int cats = kCategories;
  for (int i = 0; i < spec.join_triggers; ++i) {
    std::string cond = "r.k = s.k and r.cat = " + Num(i % cats) +
                       " and s.cat = " + Num((i / cats) % cats);
    if ((i / cats) % 2 == 1) cond += " and r.v > s.v";
    in.creates.push_back("create trigger j" + Num(i) +
                         " from orders r, fills s when " + cond +
                         " do raise event J(r.id, s.id, " + Num(i) + ")");
  }
  std::vector<int64_t> thresholds;
  for (int i = 0; i < spec.aggregate_triggers; ++i) {
    int64_t v = int64_t{50} * i / spec.aggregate_triggers;
    thresholds.push_back(v);
    in.creates.push_back("create trigger a" + Num(i) +
                         " from orders r when r.v > " + Num(v) +
                         " group by r.g having count(r.id) >= " +
                         Num(kHavingCount) + " do raise event A(r.g, " +
                         Num(i) + ")");
  }

  // --- preload: static join partners, then the live rows' ramp-up ----------
  JoinSide orders(in.sources.orders, /*partner_parity=*/1);
  JoinSide fills(in.sources.fills, /*partner_parity=*/0);
  AggregateCounts agg(thresholds);
  const bool joins = spec.join_share > 0;
  int64_t preload_id = kPreloadIdBase;
  if (joins) {
    for (int m = 0; m < kPreloadKeys; ++m) {
      UpdateDescriptor o = orders.Partner(preload_id++, m, &rng);
      agg.Apply(*o.new_tuple, +1);
      Append(&in.preload, std::move(o));
      Append(&in.preload, fills.Partner(preload_id++, m, &rng));
    }
    for (int i = 0; i < kLiveRows; ++i) {
      UpdateDescriptor o = orders.InsertLive(preload_id++, &rng);
      agg.Apply(*o.new_tuple, +1);
      Append(&in.preload, std::move(o));
      Append(&in.preload, fills.InsertLive(preload_id++, &rng));
    }
  }
  in.min_steady_group_count = agg.Min();

  std::unique_ptr<tman::ZipfGenerator> zipf;
  if (spec.symbols > 0) {
    zipf = std::make_unique<tman::ZipfGenerator>(
        static_cast<uint64_t>(spec.symbols), spec.zipf_theta, rng.Next());
  }
  auto quote = [&](int64_t id) {
    std::string sym = "S";
    sym += Num(static_cast<int64_t>(zipf->Next()));
    return UpdateDescriptor::Insert(
        in.sources.quotes,
        Tuple({Value::Int(id), Value::String(std::move(sym)),
               Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
               Value::Int(static_cast<int64_t>(rng.Uniform(1000)))}));
  };
  for (int i = 0; zipf != nullptr && i < spec.warmup_quotes; ++i) {
    Append(&in.preload, quote(preload_id++));
  }

  // --- the timed stream --------------------------------------------------------
  const size_t batches =
      (static_cast<size_t>(seconds) *
           static_cast<size_t>(spec.tokens_per_second_of_run) +
       kBatchTokens - 1) /
      kBatchTokens;
  in.stream_tokens = batches * kBatchTokens;
  in.stream.reserve(batches);
  in.open_batches = std::min(
      batches, static_cast<size_t>(kOpenShare * seconds * spec.offered_rate /
                                   kBatchTokens) +
                   1);
  for (size_t i = 0; i < in.stream_tokens; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    if (!joins || !rng.Bernoulli(spec.join_share)) {
      Append(&in.stream, quote(id));
      continue;
    }
    JoinSide& side = rng.Bernoulli(0.5) ? orders : fills;
    Tuple removed, added;
    UpdateDescriptor u = side.Next(id, &rng, &removed, &added);
    if (&side == &orders) {
      agg.Apply(removed, -1);
      agg.Apply(added, +1);
      in.min_steady_group_count =
          std::min(in.min_steady_group_count, agg.Min());
    }
    Append(&in.stream, std::move(u));
  }

  // --- recovery backlog (durable workloads replay it from the WAL) ---------
  if (spec.durable) {
    for (int64_t i = 0;
         i < static_cast<int64_t>(spec.backlog_batches * kBatchTokens); ++i) {
      Append(&in.backlog, quote(kBacklogIdBase + i));
    }
  }
  return in;
}

}  // namespace perfbench
