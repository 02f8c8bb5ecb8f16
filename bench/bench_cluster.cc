// Cluster benchmarks: loopback multi-node throughput through the
// ClusterRouter (1/2/4 members) against the direct single-node ingest
// baseline, plus failover-blackout recovery latency (kill one of three
// members mid-stream, measure until the survivors have re-acked
// everything and the map reconverges).
//
// `bench_cluster --smoke` runs a fast verified round and FAILS unless
// 1-node routed throughput stays >= 0.7x the direct baseline — the
// routing layer (framing, loopback copies, admit checks, acks) must not
// cost more than 30% on top of durable ingest.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "core/trigger_manager.h"
#include "db/database.h"
#include "ipc/loopback.h"

namespace tman::bench {
namespace {

TriggerManagerOptions DurableIngestOptions() {
  TriggerManagerOptions opts;
  opts.durable_wal = true;
  opts.wal_checkpoint_bytes = 1 << 20;
  return opts;
}

constexpr uint32_t kBatch = 256;

/// One in-process member: in-memory Database (WAL host), TriggerManager,
/// ClusterNode, fed through pollable loopback pipes.
struct BenchNode {
  std::string name;
  std::unique_ptr<Database> db;
  std::unique_ptr<TriggerManager> tman;
  std::unique_ptr<ClusterNode> node;
  bool alive = true;

  void DrainTasks() {
    if (node->processing_held()) return;
    Task task;
    while (tman->task_queue().TryPop(&task)) {
      (void)task.work();
      tman->task_queue().MarkDone();
    }
  }
};

struct BenchCluster {
  ClusterConfig config;
  DataSourceId ds = 0;
  std::vector<std::unique_ptr<BenchNode>> nodes;
  std::unique_ptr<ClusterRouter> router;
  uint64_t now_ms = 0;

  explicit BenchCluster(size_t n) {
    config.num_partitions = 32;
    config.virtual_nodes = 32;
    for (size_t i = 0; i < n; ++i) {
      auto bn = std::make_unique<BenchNode>();
      bn->name = "n" + std::to_string(i);
      bn->db = std::make_unique<Database>();
      bn->tman =
          std::make_unique<TriggerManager>(bn->db.get(), DurableIngestOptions());
      Check(bn->tman->Open(), "open");
      auto src = Check(bn->tman->DefineStreamSource(
                           "feed", Schema({{"id", DataType::kInt}})),
                       "define source");
      ds = src;
      Check(bn->tman
                ->ExecuteCommand(
                    "create trigger watch from feed when feed.id >= 0 "
                    "do raise event Seen(feed.id)")
                .status(),
            "create trigger");
      nodes.push_back(std::move(bn));
    }
    config.ec_key_columns[ds] = 0;  // spread the hot source by id

    ClusterRouterOptions opts;
    opts.config = config;
    opts.membership.heartbeat_interval_ms = 50;
    opts.batch_max_updates = kBatch;
    router = std::make_unique<ClusterRouter>(opts);
    for (size_t i = 0; i < nodes.size(); ++i) {
      BenchNode* bn = nodes[i].get();
      router->AddNode(bn->name, [bn]() -> Result<std::unique_ptr<PollableTransport>> {
        if (!bn->alive) return Status::Unavailable(bn->name + " is down");
        auto pair = CreatePollableLoopbackPair(1 << 20);
        bn->node->AddConnection(std::move(pair.second));
        return std::move(pair.first);
      });
      ClusterNodeOptions node_opts;
      node_opts.name = bn->name;
      node_opts.config = config;
      bn->node = std::make_unique<ClusterNode>(bn->tman.get(), node_opts);
    }
  }

  void PumpAll() {
    router->PumpOnce(++now_ms);
    for (auto& bn : nodes) {
      if (!bn->alive) continue;
      bn->node->Pump();
      bn->DrainTasks();
    }
  }

  /// Pumps until `session` is acked through `target` and node queues are
  /// drained. Returns false on stall (bounded pump budget exceeded).
  bool RunUntilAcked(const std::string& session, uint64_t target) {
    for (uint64_t pump = 0; pump < 2000000; ++pump) {
      if (router->AckedSeq(session) >= target && router->Idle()) {
        bool drained = true;
        for (auto& bn : nodes) {
          if (bn->alive && (!bn->tman->task_queue().empty() ||
                            bn->tman->task_queue().in_flight() != 0)) {
            drained = false;
            break;
          }
        }
        if (drained) return true;
      }
      PumpAll();
    }
    return false;
  }
};

/// Routed tokens/sec through a cluster of `num_nodes` loopback members.
double MeasureRoutedThroughput(size_t num_nodes, uint64_t tokens) {
  BenchCluster cluster(num_nodes);
  // Warm the channels (joins, map installs) before timing.
  for (int i = 0; i < 200; ++i) cluster.PumpAll();

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < tokens; ++i) {
    cluster.router->Submit(
        "bench", UpdateDescriptor::Insert(
                     cluster.ds, Tuple({Value::Int(static_cast<int64_t>(i))})));
    if ((i + 1) % kBatch == 0) cluster.PumpAll();
  }
  if (!cluster.RunUntilAcked("bench", tokens)) {
    std::fprintf(stderr, "bench_cluster: routed run stalled\n");
    std::abort();
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(tokens) / elapsed.count();
}

/// Direct single-node baseline: SubmitUpdateBatch into one durable
/// TriggerManager (same WAL + trigger work, no routing layer).
double MeasureDirectThroughput(uint64_t tokens) {
  Database db;
  TriggerManager tman(&db, DurableIngestOptions());
  Check(tman.Open(), "open");
  DataSourceId ds = Check(
      tman.DefineStreamSource("feed", Schema({{"id", DataType::kInt}})),
      "define source");
  Check(tman.ExecuteCommand("create trigger watch from feed when feed.id >= 0 "
                            "do raise event Seen(feed.id)")
            .status(),
        "create trigger");

  auto drain = [&] {
    Task task;
    while (tman.task_queue().TryPop(&task)) {
      (void)task.work();
      tman.task_queue().MarkDone();
    }
  };

  auto start = std::chrono::steady_clock::now();
  std::vector<UpdateDescriptor> batch;
  batch.reserve(kBatch);
  for (uint64_t i = 0; i < tokens; ++i) {
    batch.push_back(UpdateDescriptor::Insert(
        ds, Tuple({Value::Int(static_cast<int64_t>(i))})));
    if (batch.size() == kBatch || i + 1 == tokens) {
      Check(tman.SubmitUpdateBatch(batch, nullptr, nullptr), "submit");
      batch.clear();
      drain();
    }
  }
  drain();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(tokens) / elapsed.count();
}

/// Failover blackout: stream through 3 members, kill one mid-stream,
/// return the wall time from the kill until every token is re-acked and
/// the map reconverged on the survivors.
double MeasureFailoverBlackoutMs(uint64_t tokens) {
  BenchCluster cluster(3);
  for (int i = 0; i < 200; ++i) cluster.PumpAll();

  uint64_t kill_at = tokens / 2;
  for (uint64_t i = 0; i < kill_at; ++i) {
    cluster.router->Submit(
        "bench", UpdateDescriptor::Insert(
                     cluster.ds, Tuple({Value::Int(static_cast<int64_t>(i))})));
    if ((i + 1) % kBatch == 0) cluster.PumpAll();
  }

  // Kill one member with in-flight work, then time recovery.
  BenchNode* victim = cluster.nodes[1].get();
  victim->node.reset();
  victim->tman.reset();
  victim->alive = false;

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = kill_at; i < tokens; ++i) {
    cluster.router->Submit(
        "bench", UpdateDescriptor::Insert(
                     cluster.ds, Tuple({Value::Int(static_cast<int64_t>(i))})));
    if ((i + 1) % kBatch == 0) cluster.PumpAll();
  }
  if (!cluster.RunUntilAcked("bench", tokens)) {
    std::fprintf(stderr, "bench_cluster: failover run stalled\n");
    std::abort();
  }
  std::chrono::duration<double, std::milli> blackout =
      std::chrono::steady_clock::now() - start;
  return blackout.count();
}

// --- google-benchmark entry points -------------------------------------

void BM_ClusterRoutedThroughput(benchmark::State& state) {
  size_t num_nodes = static_cast<size_t>(state.range(0));
  uint64_t tokens = 8192;
  double last = 0;
  for (auto _ : state) {
    last = MeasureRoutedThroughput(num_nodes, tokens);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(tokens));
  }
  state.counters["tokens_per_s"] = last;
}
BENCHMARK(BM_ClusterRoutedThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_DirectIngestBaseline(benchmark::State& state) {
  uint64_t tokens = 8192;
  double last = 0;
  for (auto _ : state) {
    last = MeasureDirectThroughput(tokens);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(tokens));
  }
  state.counters["tokens_per_s"] = last;
}
BENCHMARK(BM_DirectIngestBaseline)->Unit(benchmark::kMillisecond);

void BM_ClusterFailoverBlackout(benchmark::State& state) {
  uint64_t tokens = 8192;
  double last = 0;
  for (auto _ : state) {
    last = MeasureFailoverBlackoutMs(tokens);
  }
  state.counters["blackout_ms"] = last;
}
BENCHMARK(BM_ClusterFailoverBlackout)->Unit(benchmark::kMillisecond);

// --- --smoke: the acceptance bound, checked ----------------------------

int RunSmoke() {
  const uint64_t kTokens = 8192;
  double direct = MeasureDirectThroughput(kTokens);
  double routed = MeasureRoutedThroughput(1, kTokens);
  double ratio = routed / direct;
  std::printf(
      "bench_cluster --smoke: direct %.0f tokens/s, routed(1 node) %.0f "
      "tokens/s, ratio %.2fx\n",
      direct, routed, ratio);

  double blackout = MeasureFailoverBlackoutMs(kTokens);
  std::printf("bench_cluster --smoke: failover blackout %.1f ms "
              "(kill 1 of 3 mid-stream, re-ack + reconverge)\n",
              blackout);

  if (ratio < 0.7) {
    std::printf(
        "bench_cluster --smoke FAILED: routed %.2fx < 0.7x direct baseline\n",
        ratio);
    return 1;
  }
  std::printf("bench_cluster --smoke OK: routed >= 0.7x direct\n");
  return 0;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      return tman::bench::RunSmoke();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
