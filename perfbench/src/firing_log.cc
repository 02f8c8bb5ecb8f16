#include "perfbench/src/firing_log.h"

#include <algorithm>
#include <chrono>

#include "perfbench/src/workload.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::atomic<uint64_t> g_next_generation{1};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t FiringHash(char kind, int64_t trigger, int64_t a, int64_t b) {
  uint64_t h = Mix(static_cast<uint64_t>(kind));
  h = Mix(h ^ static_cast<uint64_t>(trigger));
  h = Mix(h ^ static_cast<uint64_t>(a));
  return Mix(h ^ static_cast<uint64_t>(b));
}

bool IntArg(const tman::Event& e, size_t i, int64_t* out) {
  if (i >= e.args.size() || !e.args[i].is_int()) return false;
  *out = e.args[i].as_int();
  return true;
}

}  // namespace

FiringLog::FiringLog(const std::set<int64_t>* sampled_tokens,
                     size_t prefix_batches,
                     const std::vector<std::atomic<int64_t>>* handoff_ns,
                     size_t segments)
    : generation_(g_next_generation.fetch_add(1)),
      sampled_tokens_(sampled_tokens),
      prefix_batches_(prefix_batches),
      handoff_ns_(handoff_ns),
      segments_(std::max<size_t>(1, segments)) {}

FiringLog::Shard& FiringLog::Local() {
  // One shard per (thread, log): firing threads never share a counter.
  thread_local uint64_t tls_generation = 0;
  thread_local Shard* tls_shard = nullptr;
  if (tls_generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->summary.latency_ns.resize(segments_);
    tls_shard = shards_.back().get();
    tls_generation = generation_;
  }
  return *tls_shard;
}

void FiringLog::OnEvent(const tman::Event& event) {
  const int64_t now = NowNs();
  FiringSummary& s = Local().summary;
  int64_t a = 0, b = 0, trigger = 0;
  uint64_t hash = 0;
  int64_t token = -1;  // the stream token that fired, if known
  if (event.name == "S" && IntArg(event, 0, &a) && IntArg(event, 1, &trigger)) {
    ++s.selection_firings;
    hash = FiringHash('S', trigger, a, 0);
    if (sampled_tokens_ != nullptr && sampled_tokens_->count(a) > 0) {
      s.sampled.emplace_back(a, trigger);
    }
    token = a;
  } else if (event.name == "J" && IntArg(event, 0, &a) &&
             IntArg(event, 1, &b) && IntArg(event, 2, &trigger)) {
    ++s.join_firings;
    hash = FiringHash('J', trigger, a, b);
    // The arriving stream row joins a static partner row.
    token = std::min(a, b);
  } else if (event.name == "A" && IntArg(event, 0, &a) &&
             IntArg(event, 1, &trigger)) {
    // Which token completes a group depends on processing order, so an
    // aggregate firing is identified by its group, not by a token.
    ++s.aggregate_firings;
    hash = FiringHash('A', trigger, a, 0);
  } else {
    ++s.malformed;
    return;
  }
  s.digest += hash;
  if (token < 0 || token >= kPreloadIdBase) return;
  const size_t batch = static_cast<size_t>(token) / kBatchTokens;
  if (batch >= prefix_batches_) return;
  s.prefix_digest += hash;
  ++s.prefix_firings;
  if (handoff_ns_ != nullptr && batch < handoff_ns_->size()) {
    s.latency_ns[batch * segments_ / handoff_ns_->size()].push_back(
        now - (*handoff_ns_)[batch].load(std::memory_order_relaxed));
  }
}

FiringSummary FiringLog::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FiringSummary out;
  out.latency_ns.resize(segments_);
  for (const auto& shard : shards_) {
    const FiringSummary& s = shard->summary;
    out.digest += s.digest;
    out.prefix_digest += s.prefix_digest;
    out.prefix_firings += s.prefix_firings;
    out.selection_firings += s.selection_firings;
    out.join_firings += s.join_firings;
    out.aggregate_firings += s.aggregate_firings;
    out.malformed += s.malformed;
    out.sampled.insert(out.sampled.end(), s.sampled.begin(), s.sampled.end());
    for (size_t i = 0; i < segments_; ++i) {
      out.latency_ns[i].insert(out.latency_ns[i].end(),
                               s.latency_ns[i].begin(), s.latency_ns[i].end());
    }
  }
  std::sort(out.sampled.begin(), out.sampled.end());
  return out;
}

}  // namespace perfbench
