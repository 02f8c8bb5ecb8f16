// Experiment E2 (§5.1): the trigger cache. More triggers exist than fit
// in main memory; matched triggers are pinned, loading their descriptions
// from the catalog on a miss. With a skewed (Zipf) match distribution the
// working set stays cached and throughput approaches the all-in-memory
// case; a uniform distribution over more triggers than capacity thrashes.
//
// Only triggers with network or aggregate state are pinned: the cache
// lanes use two-variable join triggers. A selection trigger fires from
// its resident firing plan, so BM_SelectionFiring's cost does not move
// with capacity; it also reports the heap each installed selection
// trigger keeps.

#include <malloc.h>

#include "bench/bench_common.h"

#include "cache/trigger_cache.h"
#include "catalog/trigger_catalog.h"
#include "core/trigger_manager.h"

namespace tman::bench {
namespace {

constexpr int kTriggers = 4096;

/// Heap bytes in use (glibc arena plus mmap'd blocks).
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

std::string Symbol(int i) { return "SYM" + std::to_string(i); }

struct CacheFixture {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  DataSourceId ds = 0;
  double heap_bytes_per_trigger = 0;

  /// `join`: trigger i is `quotes q, refs r` joined on the symbol, with
  /// q.symbol = 'SYMi' (a pinned network per match); otherwise a
  /// selection trigger on q.symbol = 'SYMi'. A token matches exactly one
  /// trigger either way.
  CacheFixture(size_t cache_capacity, bool join) {
    TriggerManagerOptions options;
    options.trigger_cache_capacity = cache_capacity;
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    Check(db.CreateTable("quotes", QuoteSchema()), "create quotes");
    ds = Check(tman->DefineLocalTableSource("quotes"), "define quotes");
    if (join) {
      // One reference row per symbol behind an index: each firing's join
      // is one index probe of a virtual alpha node.
      Check(db.CreateTable("refs", Schema({{"symbol", DataType::kVarchar},
                                           {"floor", DataType::kFloat}})),
            "create refs");
      Check(db.CreateIndex("refs_symbol", "refs", {"symbol"}), "index refs");
      for (int i = 0; i < kTriggers; ++i) {
        Check(db.Insert("refs", Tuple({Value::String(Symbol(i)),
                                       Value::Float(0)}))
                  .status(),
              "insert ref");
      }
      Check(tman->DefineLocalTableSource("refs").status(), "define refs");
    }
    const double heap_before = HeapInUse();
    for (int i = 0; i < kTriggers; ++i) {
      std::string cmd =
          join ? "create trigger t" + std::to_string(i) +
                     " from quotes q, refs r on insert to q when q.symbol = '" +
                     Symbol(i) +
                     "' and r.symbol = q.symbol do raise event E(q.price, "
                     "r.floor)"
               : "create trigger t" + std::to_string(i) +
                     " from quotes when quotes.symbol = '" + Symbol(i) +
                     "' do raise event E(quotes.price)";
      Check(tman->ExecuteCommand(cmd).status(), "create trigger");
    }
    heap_bytes_per_trigger = (HeapInUse() - heap_before) / kTriggers;
  }

  void Fire(int sym) {
    Check(tman->SubmitUpdate(UpdateDescriptor::Insert(
              ds, Tuple({Value::String(Symbol(sym)), Value::Float(10),
                         Value::Int(1)}))),
          "submit");
    Check(tman->ProcessPending(), "process");
  }
};

void RunCacheBenchmark(benchmark::State& state, double zipf_theta) {
  size_t capacity = static_cast<size_t>(state.range(0));
  CacheFixture fx(capacity, /*join=*/true);
  fx.tman->cache().ResetStats();
  ZipfGenerator zipf(kTriggers, zipf_theta, 99);
  for (auto _ : state) fx.Fire(static_cast<int>(zipf.Next()));
  auto stats = fx.tman->cache().stats();
  double total = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_capacity"] = static_cast<double>(capacity);
  state.counters["hit_ratio"] =
      total > 0 ? static_cast<double>(stats.hits) / total : 0;
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["firings"] =
      static_cast<double>(fx.tman->stats().rule_firings);
}

void BM_CacheUniform(benchmark::State& state) {
  RunCacheBenchmark(state, 0.0);
}
void BM_CacheZipf(benchmark::State& state) {
  RunCacheBenchmark(state, 0.99);
}

BENCHMARK(BM_CacheUniform)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(kTriggers)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CacheZipf)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(kTriggers)
    ->Unit(benchmark::kMicrosecond);

// Selection triggers under the same uniform matching: no pins, so the
// per-token cost is flat across capacities (cache_lookups stays 0).
void BM_SelectionFiring(benchmark::State& state) {
  size_t capacity = static_cast<size_t>(state.range(0));
  CacheFixture fx(capacity, /*join=*/false);
  fx.tman->cache().ResetStats();
  ZipfGenerator zipf(kTriggers, 0.0, 99);
  for (auto _ : state) fx.Fire(static_cast<int>(zipf.Next()));
  auto stats = fx.tman->cache().stats();
  state.counters["cache_capacity"] = static_cast<double>(capacity);
  state.counters["cache_lookups"] =
      static_cast<double>(stats.hits + stats.misses);
  state.counters["heap_bytes_per_trigger"] = fx.heap_bytes_per_trigger;
}
BENCHMARK(BM_SelectionFiring)
    ->Arg(64)
    ->Arg(kTriggers)
    ->Unit(benchmark::kMicrosecond);

// Pin cost in isolation: a hit is a hash probe; a miss re-parses the
// trigger text and rebuilds the network (the paper's motivation for
// keeping descriptions cached).
void BM_PinHit(benchmark::State& state) {
  CacheFixture fx(kTriggers, /*join=*/true);
  auto warm = fx.tman->PinTrigger("t0");
  Check(warm.status(), "pin");
  TriggerId id = (*warm)->id;
  for (auto _ : state) {
    auto h = fx.tman->cache().Pin(id);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_PinHit)->Unit(benchmark::kNanosecond);

void BM_PinMiss(benchmark::State& state) {
  CacheFixture fx(kTriggers, /*join=*/true);
  auto warm = fx.tman->PinTrigger("t0");
  Check(warm.status(), "pin");
  TriggerId id = (*warm)->id;
  warm = Status::NotFound("released");
  for (auto _ : state) {
    fx.tman->cache().Invalidate(id);  // force a catalog load
    auto h = fx.tman->cache().Pin(id);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_PinMiss)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
