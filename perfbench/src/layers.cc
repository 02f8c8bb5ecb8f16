#include "perfbench/src/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "parser/parser.h"
#include "perfbench/src/firing_log.h"
#include "runtime/task_queue.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table_queue.h"
#include "storage/wal.h"
#include "util/codec.h"

namespace perfbench {
namespace {

// Replay caps: enough calls that a mean is stable, few enough that the
// traced pass stays a small share of the run.
constexpr size_t kMatchTokens = 65536;
constexpr size_t kPins = 200000;
constexpr size_t kWalBatches = 1024;
constexpr size_t kQueueRecords = 16384;
constexpr size_t kTasks = 131072;
constexpr size_t kParses = 20000;

double PerUnit(int64_t ns, double units, double scale = 1.0) {
  return units > 0 ? static_cast<double>(ns) / units / scale : 0.0;
}

void Fail(const char* what, const tman::Status& s) {
  std::fprintf(stderr, "traced pass: %s: %s\n", what, s.ToString().c_str());
  std::exit(2);
}

std::vector<const Batch*> StreamPrefix(const Inputs& in, size_t tokens) {
  std::vector<const Batch*> out;
  size_t n = 0;
  for (const Batch& b : in.stream) {
    if (n >= tokens) break;
    out.push_back(&b);
    n += b.size();
  }
  return out;
}

/// The WAL record SubmitDurableBatch writes for an unstamped batch.
std::string BatchPayload(const Batch& batch) {
  std::string payload;
  tman::PutLengthPrefixed(&payload, "");
  tman::PutU64(&payload, 0);
  tman::PutU32(&payload, static_cast<uint32_t>(batch.size()));
  for (const tman::UpdateDescriptor& token : batch) {
    std::string record;
    token.Serialize(&record);
    tman::PutU64(&payload, 0);
    tman::PutLengthPrefixed(&payload, record);
  }
  return payload;
}

}  // namespace

void TraceLayers(const Inputs& in, tman::TriggerManager* engine,
                 std::vector<Metric>* out) {
  const std::vector<const Batch*> batches = StreamPrefix(in, kMatchTokens);
  size_t tokens = 0;
  for (const Batch* b : batches) tokens += b->size();

  // --- predicate index: batched probe, then the scalar entry --------------
  std::vector<tman::TriggerId> matched;
  matched.reserve(kPins);
  uint64_t matches = 0;
  int64_t t0 = NowNs();
  for (const Batch* b : batches) {
    tman::Status s = engine->predicate_index().MatchBatch(
        *b, 0, 1, [&](size_t, const tman::PredicateMatch& m) {
          ++matches;
          if (matched.size() < kPins) matched.push_back(m.trigger_id);
        });
    if (!s.ok()) Fail("MatchBatch", s);
  }
  int64_t batch_ns = NowNs() - t0;
  std::vector<tman::PredicateMatch> scalar;
  t0 = NowNs();
  for (const Batch* b : batches) {
    for (const tman::UpdateDescriptor& token : *b) {
      scalar.clear();
      tman::Status s = engine->predicate_index().Match(token, &scalar);
      if (!s.ok()) Fail("Match", s);
    }
  }
  int64_t scalar_ns = NowNs() - t0;
  const double n = static_cast<double>(tokens);
  out->push_back({"predindex.match_ns_per_token", PerUnit(batch_ns, n), "ns"});
  out->push_back({"predindex.matches_per_token",
                  static_cast<double>(matches) / n, "count"});
  out->push_back(
      {"predindex.match_scalar_ns_per_token", PerUnit(scalar_ns, n), "ns"});

  // --- trigger cache: pin every matched trigger in match order ------------
  t0 = NowNs();
  for (tman::TriggerId id : matched) {
    auto pinned = engine->cache().Pin(id);
    if (!pinned.ok()) Fail("Pin", pinned.status());
  }
  out->push_back({"cache.pin_ns",
                  PerUnit(NowNs() - t0, static_cast<double>(matched.size())),
                  "ns"});

  // --- WAL: the workload's batches through a standalone log ---------------
  {
    tman::DiskManager disk;
    auto header = tman::Wal::Create(&disk);
    if (!header.ok()) Fail("Wal::Create", header.status());
    auto wal = tman::Wal::Open(&disk, *header);
    if (!wal.ok()) Fail("Wal::Open", wal.status());
    std::vector<std::string> payloads;
    size_t wal_tokens = 0;
    for (size_t i = 0; i < in.stream.size() && i < kWalBatches; ++i) {
      payloads.push_back(BatchPayload(in.stream[i]));
      wal_tokens += in.stream[i].size();
    }
    t0 = NowNs();
    for (const std::string& p : payloads) {
      auto lsn = (*wal)->Append(tman::WalRecordType::kBatch, p);
      if (!lsn.ok()) Fail("Wal::Append", lsn.status());
      tman::Status s = (*wal)->Commit(*lsn);
      if (!s.ok()) Fail("Wal::Commit", s);
    }
    int64_t wal_ns = NowNs() - t0;
    tman::WalStats ws = (*wal)->stats();
    out->push_back({"wal.commit_us",
                    PerUnit(wal_ns, static_cast<double>(payloads.size()), 1e3),
                    "us"});
    out->push_back({"wal.bytes_per_token",
                    static_cast<double>(ws.bytes_appended) /
                        static_cast<double>(wal_tokens),
                    "B"});
  }

  // --- persistent staging queue: the same serialized tokens ---------------
  {
    tman::DiskManager disk;
    tman::BufferPool pool(&disk, 4096);
    auto meta = tman::TableQueue::Create(&pool);
    if (!meta.ok()) Fail("TableQueue::Create", meta.status());
    tman::TableQueue queue(&pool, *meta);
    std::vector<std::string> records;
    for (const Batch& b : in.stream) {
      for (const tman::UpdateDescriptor& token : b) {
        if (records.size() == kQueueRecords) break;
        records.emplace_back();
        token.Serialize(&records.back());
      }
    }
    t0 = NowNs();
    for (const std::string& r : records) {
      tman::Status s = queue.Enqueue(r);
      if (!s.ok()) Fail("TableQueue::Enqueue", s);
    }
    int64_t enq_ns = NowNs() - t0;
    t0 = NowNs();
    for (size_t i = 0; i < records.size(); ++i) {
      auto r = queue.Dequeue();
      if (!r.ok()) Fail("TableQueue::Dequeue", r.status());
    }
    int64_t deq_ns = NowNs() - t0;
    const double count = static_cast<double>(records.size());
    out->push_back({"table_queue.enqueue_ns", PerUnit(enq_ns, count), "ns"});
    out->push_back({"table_queue.dequeue_ns", PerUnit(deq_ns, count), "ns"});
  }

  // --- task queue: batch push, batch pop, as the drivers use it -----------
  {
    tman::TaskQueue queue;
    uint64_t ran = 0;
    std::vector<tman::Task> popped;
    t0 = NowNs();
    for (size_t done = 0; done < kTasks; done += kBatchTokens) {
      std::vector<tman::Task> push(kBatchTokens);
      for (tman::Task& t : push) {
        t.work = [&ran]() {
          ++ran;
          return tman::Status::OK();
        };
      }
      queue.PushBatch(std::move(push));
      for (;;) {
        popped.clear();
        if (queue.PopBatch(&popped, 16) == 0) break;
        for (tman::Task& t : popped) {
          (void)t.work();
          queue.MarkDone();
        }
      }
    }
    out->push_back({"runtime.push_pop_ns_per_task",
                    PerUnit(NowNs() - t0, static_cast<double>(ran)), "ns"});
  }

  // --- parser: the population's create texts ------------------------------
  {
    size_t parses = std::min(in.creates.size(), kParses);
    t0 = NowNs();
    for (size_t i = 0; i < parses; ++i) {
      auto cmd = tman::ParseCommand(in.creates[i]);
      if (!cmd.ok()) Fail("ParseCommand", cmd.status());
    }
    out->push_back({"parser.parse_us",
                    PerUnit(NowNs() - t0, static_cast<double>(parses), 1e3),
                    "us"});
  }
}

}  // namespace perfbench
