// The benchmark's EventManager consumer: an order-independent digest of
// every firing, the sampled selection firings the interpreter oracle
// checks, and submit->fire latencies.

#ifndef PERFBENCH_FIRING_LOG_H_
#define PERFBENCH_FIRING_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "core/events.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct FiringSummary {
  uint64_t digest = 0;  // sum of per-firing hashes (order-independent)
  /// The same over firings of the first prefix_batches stream batches.
  uint64_t prefix_digest = 0;
  uint64_t prefix_firings = 0;
  uint64_t selection_firings = 0;
  uint64_t join_firings = 0;
  uint64_t aggregate_firings = 0;
  uint64_t malformed = 0;  // events the benchmark did not raise
  /// (token id, selection trigger number) of sampled tokens, sorted.
  std::vector<std::pair<int64_t, int64_t>> sampled;
  /// Submit->fire latencies in ns per stream segment, unsorted (empty
  /// unless hand-off times were given).
  std::vector<std::vector<int64_t>> latency_ns;

  uint64_t firings() const {
    return selection_firings + join_firings + aggregate_firings;
  }
};

class FiringLog {
 public:
  /// `sampled_tokens`: token ids whose selection firings are kept for the
  /// oracle. Firings of tokens in the first `prefix_batches` stream batches
  /// also go into the prefix digest. `handoff_ns` (optional): per prefix
  /// batch, the time the batch was handed to SubmitUpdateBatch; those
  /// firings then record submit->fire latency, binned into `segments`
  /// equal runs of batches.
  FiringLog(const std::set<int64_t>* sampled_tokens, size_t prefix_batches,
            const std::vector<std::atomic<int64_t>>* handoff_ns = nullptr,
            size_t segments = 1);
  FiringLog(const FiringLog&) = delete;
  FiringLog& operator=(const FiringLog&) = delete;

  /// EventManager consumer; runs on whichever thread fired the trigger.
  void OnEvent(const tman::Event& event);

  /// Merges every thread's shard. Call once firing has stopped.
  FiringSummary Collect() const;

 private:
  struct Shard {
    FiringSummary summary;
  };
  Shard& Local();

  const uint64_t generation_;
  const std::set<int64_t>* sampled_tokens_;
  const size_t prefix_batches_;
  const std::vector<std::atomic<int64_t>>* handoff_ns_;
  const size_t segments_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIRING_LOG_H_
