// Experiment E4 (§5.4): join triggers. Selection predicates are tested by
// the shared predicate index *before* any A-TREAT join work happens:
// when join triggers carry a selective predicate on the updated source,
// per-token cost is proportional to the triggers whose selection matches,
// not to the installed population. Triggers with an unselective event
// node (every token reaches every network) show the contrast — §7's
// design advice exists precisely because of that case.
// BM_StreamJoinMaintenance covers stored (stream) alpha memories;
// BM_AggregateMaintenance and BM_AggregateManyGroups cover aggregate
// shapes.

#include <malloc.h>

#include <chrono>
#include <deque>
#include <map>
#include <memory>

#include "bench/bench_common.h"

#include "core/trigger_manager.h"

namespace tman::bench {
namespace {

constexpr int kNeighborhoods = 200;

struct RealEstate {
  Database db;
  std::unique_ptr<TriggerManager> tman;

  RealEstate(int num_triggers, bool selective) {
    Check(db.CreateTable("salesperson",
                         Schema({{"spno", DataType::kInt},
                                 {"name", DataType::kVarchar}}))
              .status(),
          "create salesperson");
    Check(db.CreateTable("house", Schema({{"hno", DataType::kInt},
                                          {"price", DataType::kFloat},
                                          {"nno", DataType::kInt}}))
              .status(),
          "create house");
    Check(db.CreateTable("represents", Schema({{"spno", DataType::kInt},
                                               {"nno", DataType::kInt}}))
              .status(),
          "create represents");
    // Join-attribute indexes: virtual alpha nodes probe these instead of
    // scanning (as a DataBlade would run indexed SQL inside Informix).
    Check(db.CreateIndex("idx_rep_nno", "represents", {"nno"}), "idx");
    Check(db.CreateIndex("idx_sp_spno", "salesperson", {"spno"}), "idx");
    tman = std::make_unique<TriggerManager>(&db);
    Check(tman->Open(), "open");
    Check(tman->DefineLocalTableSource("salesperson").status(), "src");
    Check(tman->DefineLocalTableSource("house").status(), "src");
    Check(tman->DefineLocalTableSource("represents").status(), "src");

    Random rng(23);
    for (int i = 0; i < num_triggers; ++i) {
      int nno = static_cast<int>(rng.Uniform(kNeighborhoods));
      Check(db.Insert("salesperson",
                      Tuple({Value::Int(i), Value::String(
                                                "sp" + std::to_string(i))}))
                .status(),
            "insert sp");
      Check(db.Insert("represents",
                      Tuple({Value::Int(i), Value::Int(nno)}))
                .status(),
            "insert rep");
      // Selective triggers pin the house node to the salesperson's own
      // neighborhood — an indexable equality the predicate index
      // discriminates on. Unselective triggers accept any house token
      // and leave all filtering to the join.
      std::string house_cond =
          selective ? " and h.nno = " + std::to_string(nno) : "";
      std::string cmd =
          "create trigger alert" + std::to_string(i) +
          " on insert to house from salesperson s, house h, represents r "
          "when s.name = 'sp" + std::to_string(i) +
          "' and s.spno = r.spno and r.nno = h.nno" + house_cond +
          " do raise event E(h.hno)";
      Check(tman->ExecuteCommand(cmd).status(), "create trigger");
    }
    Check(tman->ProcessPending(), "drain");
  }
};

RealEstate* Fixture(int num_triggers, bool selective) {
  static std::map<std::pair<int, bool>, std::unique_ptr<RealEstate>>* cache =
      new std::map<std::pair<int, bool>, std::unique_ptr<RealEstate>>();
  auto key = std::make_pair(num_triggers, selective);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();
  auto fx = std::make_unique<RealEstate>(num_triggers, selective);
  RealEstate* out = fx.get();
  (*cache)[key] = std::move(fx);
  return out;
}

void RunHouseInserts(benchmark::State& state, bool selective) {
  int num_triggers = static_cast<int>(state.range(0));
  RealEstate* fx = Fixture(num_triggers, selective);
  Random rng(5);
  static int64_t hno = 1000000;
  uint64_t before = fx->tman->stats().rule_firings;
  for (auto _ : state) {
    Check(fx->db
              .Insert("house",
                      Tuple({Value::Int(hno++), Value::Float(100000),
                             Value::Int(static_cast<int64_t>(
                                 rng.Uniform(kNeighborhoods)))}))
              .status(),
          "insert house");
    Check(fx->tman->ProcessPending(), "process");
  }
  state.counters["join_triggers"] = static_cast<double>(num_triggers);
  state.counters["firings_per_token"] =
      static_cast<double>(fx->tman->stats().rule_firings - before) /
      static_cast<double>(state.iterations());
}

void BM_SelectiveJoinTriggers(benchmark::State& state) {
  RunHouseInserts(state, /*selective=*/true);
}
BENCHMARK(BM_SelectiveJoinTriggers)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

void BM_UnselectiveJoinTriggers(benchmark::State& state) {
  RunHouseInserts(state, /*selective=*/false);
}
BENCHMARK(BM_UnselectiveJoinTriggers)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// A token that matches no selection predicate is rejected by the
// predicate index without touching any network, regardless of how many
// join triggers exist.
void BM_NonMatchingToken(benchmark::State& state) {
  int num_triggers = static_cast<int>(state.range(0));
  RealEstate* fx = Fixture(num_triggers, /*selective=*/true);
  static int64_t spno = 5000000;
  for (auto _ : state) {
    Check(fx->db
              .Insert("salesperson", Tuple({Value::Int(spno++),
                                            Value::String("nobody")}))
              .status(),
          "insert");
    Check(fx->tman->ProcessPending(), "process");
  }
  state.counters["join_triggers"] = static_cast<double>(num_triggers);
}
BENCHMARK(BM_NonMatchingToken)
    ->Arg(10)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

// Stream-join maintenance: N two-stream join triggers shaped like
// perfbench durable_mixed's (`r.k = s.k and r.cat = a and s.cat = b`
// over 12 categories per side) see an insert/delete stream that holds
// each source's live rows steady. Every token updates the stored alpha
// memory of its row's selection, which the engine keeps once per
// distinct selection however many triggers share it (24 memories for
// any N >= 144), and runs the fire pass of the triggers whose selection
// it passes (rarely a join partner: keys are spread wide).
constexpr int kCategories = 12;
constexpr int kLiveRows = 512;  // per source
constexpr int kStreamBatch = 64;

/// Heap bytes in use (glibc arena plus mmap'd blocks).
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

struct StreamJoins {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  DataSourceId sources[2] = {0, 0};
  std::deque<Tuple> live[2];
  Random rng{41};
  int64_t next_id = 1;
  double heap_bytes_per_trigger = 0;

  explicit StreamJoins(int num_triggers) {
    TriggerManagerOptions options;
    options.persistent_queue = false;
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    Schema schema({{"id", DataType::kInt},
                   {"k", DataType::kInt},
                   {"cat", DataType::kInt},
                   {"v", DataType::kInt}});
    sources[0] = Check(tman->DefineStreamSource("orders", schema), "orders");
    sources[1] = Check(tman->DefineStreamSource("fills", schema), "fills");
    // Heap over install plus the preloaded live rows: the trigger
    // descriptions, plans and predicates, and the stored memories.
    const double heap_before = HeapInUse();
    for (int i = 0; i < num_triggers; ++i) {
      std::string cond = "r.k = s.k and r.cat = " +
                         std::to_string(i % kCategories) + " and s.cat = " +
                         std::to_string((i / kCategories) % kCategories);
      Check(tman->ExecuteCommand("create trigger j" + std::to_string(i) +
                                 " from orders r, fills s when " + cond +
                                 " do raise event J(r.id, s.id)")
                .status(),
            "create trigger");
    }
    std::vector<UpdateDescriptor> preload;
    for (int side = 0; side < 2; ++side) {
      for (int i = 0; i < kLiveRows; ++i) preload.push_back(NewRow(side));
    }
    Check(tman->SubmitUpdateBatch(preload), "preload");
    Check(tman->ProcessPending(), "drain");
    heap_bytes_per_trigger = (HeapInUse() - heap_before) / num_triggers;
  }

  UpdateDescriptor NewRow(int side) {
    Tuple row({Value::Int(next_id++),
               Value::Int(static_cast<int64_t>(rng.Uniform(1u << 20))),
               Value::Int(static_cast<int64_t>(rng.Uniform(kCategories))),
               Value::Int(static_cast<int64_t>(rng.Uniform(100)))});
    live[side].push_back(row);
    return UpdateDescriptor::Insert(sources[side], std::move(row));
  }

  /// One stream batch: on a random source each time, an insert of a new
  /// row and a delete of the oldest live row.
  std::vector<UpdateDescriptor> NextBatch() {
    std::vector<UpdateDescriptor> batch;
    while (batch.size() < kStreamBatch) {
      int side = static_cast<int>(rng.Uniform(2));
      batch.push_back(NewRow(side));
      batch.push_back(
          UpdateDescriptor::Delete(sources[side], live[side].front()));
      live[side].pop_front();
    }
    return batch;
  }
};

void BM_StreamJoinMaintenance(benchmark::State& state) {
  const int num_triggers = static_cast<int>(state.range(0));
  StreamJoins fx(num_triggers);
  uint64_t tokens = 0;
  std::chrono::nanoseconds spent{0};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<UpdateDescriptor> batch = fx.NextBatch();
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    Check(fx.tman->SubmitUpdateBatch(batch), "submit");
    Check(fx.tman->ProcessPending(), "process");
    spent += std::chrono::steady_clock::now() - start;
    tokens += batch.size();
  }
  TriggerManagerStats st = fx.tman->stats();
  state.counters["join_triggers"] = static_cast<double>(num_triggers);
  state.counters["ns_per_token"] =
      tokens == 0 ? 0.0
                  : static_cast<double>(spent.count()) /
                        static_cast<double>(tokens);
  state.counters["alpha_memories"] = static_cast<double>(st.alpha.memories);
  state.counters["heap_bytes_per_trigger"] = fx.heap_bytes_per_trigger;
}
BENCHMARK(BM_StreamJoinMaintenance)
    ->Arg(24)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// Aggregate maintenance: N aggregate triggers shaped like perfbench
// durable_mixed's (`r.v > c group by r.g having count(r.id) >= h` over 2
// groups; here h is never reached) see an insert/delete stream on their
// source. They share one aggregate shape, so each token evaluates its
// group key once and updates the slots of the triggers whose selection
// it passes under one lock.
//
// BM_AggregateManyGroups is the opposite case: selective `r.v = i`
// aggregates over a high-cardinality group-by column (65,536 keys,
// 16,384 live rows), so each token passes one trigger's selection and
// each trigger holds only a few of the shape's groups. Its heap per
// trigger shows whether a trigger's state follows the groups it holds.
constexpr int kManyGroups = 1 << 16;
constexpr int kManyGroupRows = 1 << 14;

struct Aggregates {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  DataSourceId source = 0;
  std::deque<Tuple> live;
  Random rng{43};
  int64_t next_id = 1;
  const int num_triggers;
  const bool selective;
  const int groups;
  double heap_bytes_per_trigger = 0;

  Aggregates(int num_triggers, bool selective, int groups, int live_rows)
      : num_triggers(num_triggers), selective(selective), groups(groups) {
    TriggerManagerOptions options;
    options.persistent_queue = false;
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    source = Check(tman->DefineStreamSource(
                       "orders", Schema({{"id", DataType::kInt},
                                         {"g", DataType::kInt},
                                         {"v", DataType::kInt}})),
                   "orders");
    // Heap over install plus the preloaded rows' maintenance; the rows
    // themselves (the preload batch and `live`) are made before.
    std::vector<UpdateDescriptor> preload;
    for (int i = 0; i < live_rows; ++i) preload.push_back(NewRow());
    const double heap_before = HeapInUse();
    for (int i = 0; i < num_triggers; ++i) {
      const std::string selection =
          selective ? "r.v = " + std::to_string(i)
                    : "r.v > " + std::to_string(50 * i / num_triggers);
      Check(tman->ExecuteCommand(
                    "create trigger a" + std::to_string(i) +
                    " from orders r when " + selection +
                    " group by r.g having count(r.id) >= 1000000000"
                    " do raise event A(r.g)")
                .status(),
            "create trigger");
    }
    Check(tman->SubmitUpdateBatch(preload), "preload");
    Check(tman->ProcessPending(), "drain");
    heap_bytes_per_trigger = (HeapInUse() - heap_before) / num_triggers;
  }

  UpdateDescriptor NewRow() {
    const uint64_t values = selective ? num_triggers : 100;
    Tuple row({Value::Int(next_id++),
               Value::Int(static_cast<int64_t>(rng.Uniform(groups))),
               Value::Int(static_cast<int64_t>(rng.Uniform(values)))});
    live.push_back(row);
    return UpdateDescriptor::Insert(source, std::move(row));
  }

  /// One stream batch of inserts of new rows and deletes of the oldest.
  std::vector<UpdateDescriptor> NextBatch() {
    std::vector<UpdateDescriptor> batch;
    while (batch.size() < kStreamBatch) {
      batch.push_back(NewRow());
      batch.push_back(UpdateDescriptor::Delete(source, live.front()));
      live.pop_front();
    }
    return batch;
  }
};

void RunAggregates(benchmark::State& state, bool selective, int groups,
                   int live_rows) {
  const int num_triggers = static_cast<int>(state.range(0));
  Aggregates fx(num_triggers, selective, groups, live_rows);
  uint64_t tokens = 0;
  std::chrono::nanoseconds spent{0};
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<UpdateDescriptor> batch = fx.NextBatch();
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    Check(fx.tman->SubmitUpdateBatch(batch), "submit");
    Check(fx.tman->ProcessPending(), "process");
    spent += std::chrono::steady_clock::now() - start;
    tokens += batch.size();
  }
  TriggerManagerStats st = fx.tman->stats();
  state.counters["aggregate_triggers"] = static_cast<double>(num_triggers);
  state.counters["ns_per_token"] =
      tokens == 0 ? 0.0
                  : static_cast<double>(spent.count()) /
                        static_cast<double>(tokens);
  state.counters["aggregate_shapes"] =
      static_cast<double>(st.aggregates.shapes);
  state.counters["live_groups"] = static_cast<double>(st.aggregates.groups);
  state.counters["heap_bytes_per_trigger"] = fx.heap_bytes_per_trigger;
}

void BM_AggregateMaintenance(benchmark::State& state) {
  RunAggregates(state, /*selective=*/false, /*groups=*/2, kLiveRows);
}
BENCHMARK(BM_AggregateMaintenance)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_AggregateManyGroups(benchmark::State& state) {
  RunAggregates(state, /*selective=*/true, kManyGroups, kManyGroupRows);
}
BENCHMARK(BM_AggregateManyGroups)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
