// Experiment F3 (Figure 3 / §5, §8): per-token selection matching cost.
//
// The paper's claim: with the signature-based predicate index, the cost of
// finding the triggers a token matches is (nearly) independent of the
// number of *non-matching* triggers, whereas the conventional approach —
// testing the condition of every applicable trigger — is at least linear
// in trigger count. Both run the same workload: N threshold subscriptions
// (`symbol = SYM<i> and price > C`, one symbol per subscription, so every
// tick has ~1 candidate and ~0.5 expected matches at every N) and a
// stream of quote ticks. BM_MemorySelectionShape replays perfbench's
// memory_selection population and quote stream at this layer.

#include <malloc.h>

#include <chrono>
#include <map>
#include <memory>

#include "bench/bench_common.h"

namespace tman::bench {
namespace {

std::string PredicateText(int64_t i, Random* rng) {
  return "t.symbol = 'SYM" + std::to_string(i) + "' and t.price > " +
         std::to_string(rng->Uniform(200));
}

/// Indexes are expensive to build at the 10^6 scale; build each size once
/// and reuse it across benchmark re-invocations.
PredicateIndex* IndexOfSize(int64_t num_triggers) {
  static std::map<int64_t, std::unique_ptr<PredicateIndex>>* cache =
      new std::map<int64_t, std::unique_ptr<PredicateIndex>>();
  auto it = cache->find(num_triggers);
  if (it != cache->end()) return it->second.get();
  OrgPolicy policy;
  policy.memory_max = 10000000;  // stay in main memory: F3 measures the
                                 // in-memory index; E1 covers disk orgs
  auto index = std::make_unique<PredicateIndex>(nullptr, policy);
  Check(index->RegisterDataSource(1, QuoteSchema()), "register");
  Random rng(42);
  for (int64_t i = 0; i < num_triggers; ++i) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = MustParse(PredicateText(i, &rng));
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    Check(index->AddPredicate(spec).status(), "add predicate");
  }
  PredicateIndex* out = index.get();
  (*cache)[num_triggers] = std::move(index);
  return out;
}

void BM_PredicateIndexMatch(benchmark::State& state) {
  int64_t num_triggers = state.range(0);
  PredicateIndex* index = IndexOfSize(num_triggers);
  Random tick_rng(7);
  uint64_t matches = 0;
  for (auto _ : state) {
    std::vector<PredicateMatch> out;
    Check(index->Match(
              QuoteTick(&tick_rng, static_cast<int>(num_triggers)), &out),
          "match");
    matches += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["triggers"] = static_cast<double>(num_triggers);
  state.counters["matches_per_token"] =
      static_cast<double>(matches) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PredicateIndexMatch)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

void BM_NaivePerTriggerTesting(benchmark::State& state) {
  int64_t num_triggers = state.range(0);
  static std::map<int64_t, std::unique_ptr<NaiveTester>>* cache =
      new std::map<int64_t, std::unique_ptr<NaiveTester>>();
  NaiveTester* naive;
  auto it = cache->find(num_triggers);
  if (it != cache->end()) {
    naive = it->second.get();
  } else {
    auto built = std::make_unique<NaiveTester>(QuoteSchema());
    Random rng(42);
    for (int64_t i = 0; i < num_triggers; ++i) {
      built->Add(static_cast<TriggerId>(i + 1), OpCode::kInsertOrUpdate,
                 MustParse(PredicateText(i, &rng)));
    }
    naive = built.get();
    (*cache)[num_triggers] = std::move(built);
  }
  Random tick_rng(7);
  uint64_t matches = 0;
  for (auto _ : state) {
    std::vector<TriggerId> out;
    naive->Match(QuoteTick(&tick_rng, static_cast<int>(num_triggers)), &out);
    matches += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["triggers"] = static_cast<double>(num_triggers);
  state.counters["matches_per_token"] =
      static_cast<double>(matches) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NaivePerTriggerTesting)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The memory_selection shape (perfbench's headline workload) at the
// index layer alone: per symbol one predicate of each of five signature
// classes on `sym` (`sym = c`, with `price > p`, with `price < p`, and two
// with a rest over two attributes), 20,000 symbols, and quotes with
// Zipf(1.2) symbols. Every quote probes five classes with one symbol, so
// this lane shows the cost of the equality probe. Range 1
// selects scalar Match per token (0) or MatchBatch per 64-token batch
// (1); ns_per_token is the wall time per token either way.

constexpr int kShapeSymbols = 20000;
constexpr size_t kShapeBatch = 64;

Schema ShapeSchema() {
  return Schema({{"id", DataType::kInt},
                 {"sym", DataType::kVarchar},
                 {"price", DataType::kInt},
                 {"vol", DataType::kInt}});
}

PredicateIndex* ShapeIndex() {
  static PredicateIndex* index = [] {
    OrgPolicy policy;
    policy.memory_max = 10000000;
    auto* built = new PredicateIndex(nullptr, policy);
    Check(built->RegisterDataSource(1, ShapeSchema()), "register");
    Random rng(42);
    auto jitter = [&](int64_t base, uint64_t width) {
      return std::to_string(base + static_cast<int64_t>(rng.Uniform(width)));
    };
    for (int i = 0; i < 5 * kShapeSymbols; ++i) {
      std::string cond = "t.sym = 'S" + std::to_string(i % kShapeSymbols) + "'";
      switch (i / kShapeSymbols) {
        case 0:
          break;
        case 1:
          cond += " and t.price > " + jitter(400, 200);
          break;
        case 2:
          cond += " and t.price < " + jitter(400, 200);
          break;
        case 3:
          cond += " and t.price > " + jitter(200, 100) +
                  " and t.vol - t.price > " + jitter(-100, 200);
          break;
        default:
          cond += " and t.price < " + jitter(700, 100) +
                  " and t.vol > t.price";
          break;
      }
      PredicateSpec spec;
      spec.data_source = 1;
      spec.op = OpCode::kInsertOrUpdate;
      spec.predicate = MustParse(cond);
      spec.trigger_id = static_cast<TriggerId>(i + 1);
      Check(built->AddPredicate(spec).status(), "add predicate");
    }
    return built;
  }();
  return index;
}

/// 65,536 quotes in 64-token batches.
const std::vector<std::vector<UpdateDescriptor>>& ShapeStream() {
  static const auto* stream = [] {
    auto* batches = new std::vector<std::vector<UpdateDescriptor>>(1024);
    ZipfGenerator zipf(kShapeSymbols, 1.2, 7);
    Random rng(11);
    int64_t id = 0;
    for (auto& batch : *batches) {
      for (size_t i = 0; i < kShapeBatch; ++i) {
        batch.push_back(UpdateDescriptor::Insert(
            1, Tuple({Value::Int(id++),
                      Value::String("S" + std::to_string(zipf.Next())),
                      Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
                      Value::Int(static_cast<int64_t>(rng.Uniform(1000)))})));
      }
    }
    return batches;
  }();
  return *stream;
}

void BM_MemorySelectionShape(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  PredicateIndex* index = ShapeIndex();
  const auto& stream = ShapeStream();
  uint64_t tokens = 0;
  uint64_t matches = 0;
  size_t next = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const std::vector<UpdateDescriptor>& batch = stream[next];
    next = (next + 1) % stream.size();
    if (batched) {
      Check(index->MatchBatch(batch, 0, 1,
                              [&](size_t, const PredicateMatch&) {
                                ++matches;
                              }),
            "match batch");
    } else {
      std::vector<PredicateMatch> out;
      for (const UpdateDescriptor& token : batch) {
        out.clear();
        Check(index->Match(token, &out), "match");
        matches += out.size();
      }
    }
    tokens += batch.size();
    benchmark::DoNotOptimize(matches);
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["ns_per_token"] = elapsed_ns / static_cast<double>(tokens);
  state.counters["matches_per_token"] =
      static_cast<double>(matches) / static_cast<double>(tokens);
}
BENCHMARK(BM_MemorySelectionShape)
    ->ArgName("batched")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// Heap bytes in use (glibc arena plus mmap'd blocks).
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// Trigger creation time as the trigger population grows (the signature
// list stays tiny, so creation cost stays flat — F2's claim), and the
// heap each added predicate keeps (heap_bytes_per_predicate).
void BM_AddPredicateAtScale(benchmark::State& state) {
  int64_t existing = state.range(0);
  OrgPolicy policy;
  policy.memory_max = 10000000;
  PredicateIndex index(nullptr, policy);
  Check(index.RegisterDataSource(1, QuoteSchema()), "register");
  Random rng(42);
  for (int64_t i = 0; i < existing; ++i) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = MustParse(PredicateText(i, &rng));
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    Check(index.AddPredicate(spec).status(), "add predicate");
  }
  int64_t next = existing;
  const double heap_before = HeapInUse();
  for (auto _ : state) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    spec.predicate = MustParse(PredicateText(next, &rng));
    spec.trigger_id = static_cast<TriggerId>(next + 1);
    ++next;
    Check(index.AddPredicate(spec).status(), "add predicate");
  }
  state.counters["heap_bytes_per_predicate"] =
      (HeapInUse() - heap_before) / static_cast<double>(state.iterations());
  state.counters["existing_triggers"] = static_cast<double>(existing);
}
BENCHMARK(BM_AddPredicateAtScale)
    ->Arg(0)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
