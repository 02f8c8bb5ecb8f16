// Experiment F3 (Figure 3 / §5, §8): per-token selection matching cost.
//
// The paper's claim: with the signature-based predicate index, the cost of
// finding the triggers a token matches is (nearly) independent of the
// number of *non-matching* triggers, whereas the conventional approach —
// testing the condition of every applicable trigger — is at least linear
// in trigger count. Both run the same workload: N threshold subscriptions
// (`symbol = SYM<i> and price > C`, one symbol per subscription, so every
// tick has ~1 candidate and ~0.5 expected matches at every N) and a
// stream of quote ticks.

#include <malloc.h>

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
