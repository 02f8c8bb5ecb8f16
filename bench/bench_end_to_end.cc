// Experiment F1 (Figure 1): end-to-end architecture throughput. Local
// table updates are captured by per-table hooks, staged through the
// persistent update queue (the WAL), matched by the predicate index,
// joined in A-TREAT networks, and fire execSQL / raise-event actions —
// the complete data path of the architecture diagram.

#include "bench/bench_common.h"

#include "core/trigger_manager.h"

namespace tman::bench {
namespace {

struct EndToEnd {
  Database db;
  std::unique_ptr<TriggerManager> tman;

  explicit EndToEnd(bool durable) {
    Check(db.CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                        {"salary", DataType::kFloat},
                                        {"dept", DataType::kInt}}))
              .status(),
          "create emp");
    Check(db.CreateTable("dept_stats", Schema({{"dept", DataType::kInt},
                                               {"hires", DataType::kInt}}))
              .status(),
          "create dept_stats");
    TriggerManagerOptions options;
    options.persistent_queue = durable;
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    Check(tman->DefineLocalTableSource("emp").status(), "src");

    // A realistic mix: per-department alerting triggers (shared
    // signature, distinct constants), one threshold trigger, one audit
    // trigger with an execSQL action.
    for (int d = 0; d < 50; ++d) {
      Check(tman->ExecuteCommand(
                    "create trigger deptWatch" + std::to_string(d) +
                    " from emp on insert when emp.dept = " +
                    std::to_string(d) + " do raise event DeptHire(emp.name)")
                .status(),
            "create");
    }
    Check(tman->ExecuteCommand(
                  "create trigger bigSalary from emp on insert "
                  "when emp.salary > 150000 "
                  "do raise event BigHire(emp.name, emp.salary)")
              .status(),
          "create");
    Check(tman->ExecuteCommand(
                  "create trigger audit from emp on insert "
                  "when emp.dept = 7 "
                  "do execSQL 'insert into dept_stats values (7, 1)'")
              .status(),
          "create");
  }
};

void BM_EndToEndUpdateThroughput(benchmark::State& state) {
  EndToEnd fx(state.range(0) != 0);
  Random rng(5);
  int64_t i = 0;
  for (auto _ : state) {
    Check(fx.db
              .Insert("emp",
                      Tuple({Value::String("e" + std::to_string(i++)),
                             Value::Float(static_cast<double>(
                                 50000 + rng.Uniform(150000))),
                             Value::Int(static_cast<int64_t>(
                                 rng.Uniform(100)))}))
              .status(),
          "insert");
    Check(fx.tman->ProcessPending(), "process");
  }
  auto stats = fx.tman->stats();
  state.counters["durable"] = static_cast<double>(state.range(0));
  state.counters["firings"] = static_cast<double>(stats.rule_firings);
  state.counters["sql_actions"] =
      static_cast<double>(stats.actions.sql_statements);
}
BENCHMARK(BM_EndToEndUpdateThroughput)
    ->Arg(0)  // main-memory delivery
    ->Arg(1)  // durable staging: WAL group commit per update
    ->Unit(benchmark::kMicrosecond);

// Asynchronous mode: drivers consume while the "application" updates.
void BM_EndToEndAsync(benchmark::State& state) {
  EndToEnd fx(/*durable=*/false);
  Check(fx.tman->Start(), "start");
  Random rng(5);
  int64_t i = 0;
  constexpr int kBatch = 200;
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      Check(fx.db
                .Insert("emp",
                        Tuple({Value::String("e" + std::to_string(i++)),
                               Value::Float(60000),
                               Value::Int(static_cast<int64_t>(
                                   rng.Uniform(100)))}))
                .status(),
            "insert");
    }
    fx.tman->Drain();
  }
  fx.tman->Stop();
  state.counters["batch"] = kBatch;
}
BENCHMARK(BM_EndToEndAsync)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
