// Workload definitions and the seeded input generator of the end-to-end
// trigger benchmark. The engine sees only the generated inputs: trigger
// texts and pre-built token batches.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/data_source.h"
#include "types/schema.h"
#include "types/update_descriptor.h"

namespace perfbench {

/// Tokens per SubmitUpdateBatch call (the engine's default batch_size).
inline constexpr size_t kBatchTokens = 64;

/// Ids at or above this value belong to rows loaded before a timed phase
/// (static join partners); ids below it are stream token indices.
inline constexpr int64_t kPreloadIdBase = int64_t{1} << 40;
/// Ids of the recovery backlog's tokens.
inline constexpr int64_t kBacklogIdBase = int64_t{2} << 40;

tman::Schema QuoteSchema();  // quotes(id, sym, price, vol)
tman::Schema RowSchema();    // orders/fills(id, k, cat, g, v)

/// The stream sources every engine defines, in this order.
struct Sources {
  tman::DataSourceId quotes = 0;
  tman::DataSourceId orders = 0;
  tman::DataSourceId fills = 0;
};

// The join sources' shape.
inline constexpr int kCategories = 12;      // r.cat / s.cat domain
inline constexpr int kGroups = 2;           // r.g domain
inline constexpr int kPreloadKeys = 1200;   // static partner rows per source
inline constexpr int kLiveRows = 1200;      // steady stream rows per source
inline constexpr double kUpdateShare = 0.3; // of join-source tokens
inline constexpr int kHavingCount = 100;    // aggregate threshold

struct WorkloadSpec {
  std::string name;  // BENCHMARK.json and README.md say why each exists
  bool durable = false;  // durable_wal + persistent_queue staging

  int selection_triggers = 0;  // on quotes
  int join_triggers = 0;       // orders r, fills s
  int aggregate_triggers = 0;  // on orders, group by r.g

  int symbols = 0;           // quote symbol domain
  double zipf_theta = 0.99;  // skew of token symbols
  /// Quotes processed before each timed phase so the trigger cache holds
  /// the hot triggers when timing starts.
  int warmup_quotes = 0;

  double join_share = 0;  // share of stream tokens on orders + fills

  /// Stream size = seconds x this: the closed and single-thread phases
  /// each take the whole stream, about 60% of the run's seconds together on
  /// a 4-CPU host at the seed's speed.
  int tokens_per_second_of_run = 0;
  /// Open-loop offered rate. The open loop takes the stream's prefix that
  /// lasts kOpenShare of the run's seconds at this rate.
  double offered_rate = 0;
  /// Closed-loop bound on queued + running tasks.
  size_t window_tasks = 0;
  /// Batches staged under PauseProcessing before each recovery.
  int backlog_batches = 0;
  /// setup_s and recovery_s are medians of samples spread over the run: a
  /// setup sample per phase engine, and a crash (a setup sample and its
  /// recovery samples) at the start and after every sample_every-th round.
  /// Cheap ones repeat more.
  int sample_every = 1;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// One selection trigger as the interpreter oracle sees it.
struct SelectionTrigger {
  int64_t number = 0;
  std::string condition;  // over tuple variable t
};

using Batch = std::vector<tman::UpdateDescriptor>;

inline constexpr double kOpenShare = 0.35;

struct Inputs {
  Sources sources;
  std::vector<std::string> creates;  // install order
  std::vector<SelectionTrigger> selections;
  std::vector<Batch> preload;  // applied before every timed phase
  std::vector<Batch> stream;   // the timed token stream
  size_t open_batches = 0;     // the open loop's prefix of `stream`
  std::vector<Batch> backlog;  // staged before each recovery
  size_t stream_tokens = 0;
  /// Lowest steady-state group count of any aggregate trigger, simulated
  /// in stream order: aggregates must not cross their threshold during a
  /// timed phase, or the firing set would depend on processing order.
  int64_t min_steady_group_count = 0;
};

/// Builds every input of a run from `seed`, addressed to `sources` (the ids
/// an engine gave the stream sources; every fresh engine gives the same).
/// Same seed, same inputs.
Inputs Generate(const WorkloadSpec& spec, uint64_t seed, int seconds,
                const Sources& sources);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
