// Unit tests for the persistent update queue (core/update_log.h), driven
// on a bare Database with no engine. Destroying an UpdateLog without a
// checkpoint is the kill; a fresh UpdateLog's Open() is the recovery.

#include "core/update_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "db/database.h"
#include "util/codec.h"

namespace tman {
namespace {

constexpr uint64_t kNoAutoCheckpoint = UINT64_MAX;

UpdateDescriptor Token(int64_t id) {
  return UpdateDescriptor::Insert(1, Tuple({Value::Int(id)}));
}

std::vector<UpdateDescriptor> Tokens(const std::vector<int64_t>& ids) {
  std::vector<UpdateDescriptor> out;
  for (int64_t id : ids) out.push_back(Token(id));
  return out;
}

BatchStamp Stamp(const std::string& session, std::vector<uint64_t> seqs) {
  BatchStamp stamp;
  stamp.session = session;
  stamp.ack_seq = seqs.back();
  stamp.seqs = std::move(seqs);
  return stamp;
}

int64_t IdOf(const UpdateLog::Recovered& r) {
  return r.token.new_tuple->at(0).as_int();
}

// (batch id, index, serialized token) per recovered token, in order.
std::vector<std::tuple<uint64_t, uint32_t, std::string>> Flatten(
    const std::vector<UpdateLog::Recovered>& recovered) {
  std::vector<std::tuple<uint64_t, uint32_t, std::string>> out;
  for (const UpdateLog::Recovered& r : recovered) {
    std::string bytes;
    r.token.Serialize(&bytes);
    out.emplace_back(r.slot.batch_id, r.slot.index, std::move(bytes));
  }
  return out;
}

TEST(UpdateLogTest, PartitionedTokenWritesOneMarkerAfterItsLastDone) {
  Database db;
  {
    UpdateLog log;
    auto recovered = log.Open(&db, /*partitions=*/4, kNoAutoCheckpoint);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered->empty());
    auto batch = log.Stage(Tokens({7}), nullptr);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const uint64_t staged = log.wal()->stats().records_appended;
    for (int part = 0; part < 3; ++part) {
      log.Done(*batch, 0);
      EXPECT_EQ(log.wal()->stats().records_appended, staged);
      EXPECT_EQ(log.PendingTokens(), 1u);
    }
    log.Done(*batch, 0);
    EXPECT_EQ(log.wal()->stats().records_appended, staged + 1);
    EXPECT_EQ(log.PendingTokens(), 0u);
    log.Done(*batch, 0);  // a stray report for a finished token
    EXPECT_EQ(log.wal()->stats().records_appended, staged + 1);

    ASSERT_TRUE(log.wal()->Sync().ok());
    int markers = 0;
    ASSERT_TRUE(log.wal()
                    ->Replay([&](WalRecordType type, std::string_view, Lsn) {
                      if (type == WalRecordType::kProcessed) ++markers;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(markers, 1);
  }
  UpdateLog reopened;
  auto recovered = reopened.Open(&db, 4, kNoAutoCheckpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->empty());
}

TEST(UpdateLogTest, FenceIsOneShotAndForwardOnly) {
  Database db;
  UpdateLog log;
  ASSERT_TRUE(log.Open(&db, 1, kNoAutoCheckpoint).ok());
  BatchStamp first = Stamp("s", {1, 2, 3, 4});
  auto b1 = log.Stage(Tokens({1, 2, 3, 4}), &first);
  ASSERT_TRUE(b1.ok());

  EXPECT_EQ(log.Fence({{"s", 2}}), 2u);
  EXPECT_FALSE(log.Fenced(*b1, 0));
  EXPECT_FALSE(log.Fenced(*b1, 1));
  EXPECT_TRUE(log.Fenced(*b1, 2));
  EXPECT_TRUE(log.Fenced(*b1, 3));
  EXPECT_EQ(log.Fence({{"s", 2}}), 0u);

  // Post-rejoin traffic above the old fence point: the same fence, sent
  // again with a later map install, must not swallow it.
  BatchStamp later = Stamp("s", {5, 6, 7});
  auto b2 = log.Stage(Tokens({5, 6, 7}), &later);
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(log.Fence({{"s", 2}}), 0u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_FALSE(log.Fenced(*b2, i));

  // A higher fence fences only the seqs above it that are not fenced yet.
  EXPECT_EQ(log.Fence({{"s", 5}}), 2u);
  EXPECT_FALSE(log.Fenced(*b2, 0));
  EXPECT_TRUE(log.Fenced(*b2, 1));
  EXPECT_TRUE(log.Fenced(*b2, 2));
  EXPECT_TRUE(log.Fenced(*b1, 3));
  EXPECT_EQ(log.Fence({{"other", 0}}), 0u);
}

TEST(UpdateLogTest, StampedResendAtOrBelowHighWaterIsSkippedOnReplay) {
  Database db;
  {
    UpdateLog log;
    ASSERT_TRUE(log.Open(&db, 1, kNoAutoCheckpoint).ok());
    BatchStamp first = Stamp("s", {1, 2});
    ASSERT_TRUE(log.Stage(Tokens({1, 2}), &first).ok());
    // The client's resend after an ambiguous commit failure, then a batch
    // overlapping the high-water mark, then an unstamped submitter.
    ASSERT_TRUE(log.Stage(Tokens({1, 2}), &first).ok());
    BatchStamp overlap = Stamp("s", {2, 3});
    ASSERT_TRUE(log.Stage(Tokens({2, 3}), &overlap).ok());
    ASSERT_TRUE(log.Stage(Tokens({9}), nullptr).ok());
    // Kill: no processing, no checkpoint.
  }
  UpdateLog log;
  auto recovered = log.Open(&db, 1, kNoAutoCheckpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::vector<int64_t> ids;
  for (const UpdateLog::Recovered& r : *recovered) ids.push_back(IdOf(r));
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 9}));
  EXPECT_EQ(log.recovery().batches_replayed, 3u);
  EXPECT_EQ(log.recovery().tokens_replayed, 4u);
  EXPECT_EQ(log.SessionSeq("s"), 3u);
  EXPECT_EQ(log.PendingTokens(), 4u);
}

TEST(UpdateLogTest, BothCheckpointLayoutsDecodeToTheSamePendingSet) {
  // V2: written by Checkpoint() over a live stamped batch.
  Database v2_db;
  uint64_t batch_id = 0;
  {
    UpdateLog log;
    ASSERT_TRUE(log.Open(&v2_db, 2, kNoAutoCheckpoint).ok());
    BatchStamp stamp = Stamp("s", {4, 5});
    auto batch = log.Stage(Tokens({40, 50}), &stamp);
    ASSERT_TRUE(batch.ok());
    batch_id = *batch;
    ASSERT_TRUE(log.Checkpoint().ok());
  }
  // Legacy: the same state, handcrafted in the pre-V2 layout (no meta
  // blob, no per-token seq).
  Database legacy_db;
  {
    UpdateLog log;
    ASSERT_TRUE(log.Open(&legacy_db, 2, kNoAutoCheckpoint).ok());
    std::string payload;
    PutU32(&payload, 1);  // session count
    PutLengthPrefixed(&payload, "s");
    PutU64(&payload, 5);
    PutU32(&payload, 1);  // batch count
    PutU64(&payload, batch_id);
    PutLengthPrefixed(&payload, "s");
    PutU32(&payload, 2);  // token count
    for (uint32_t index = 0; index < 2; ++index) {
      std::string bytes;
      Token(index == 0 ? 40 : 50).Serialize(&bytes);
      PutU32(&payload, index);
      PutLengthPrefixed(&payload, bytes);
    }
    auto lsn = log.wal()->Append(WalRecordType::kCheckpoint, payload);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(log.wal()->Commit(*lsn).ok());
  }

  UpdateLog v2;
  UpdateLog legacy;
  auto from_v2 = v2.Open(&v2_db, 2, kNoAutoCheckpoint);
  auto from_legacy = legacy.Open(&legacy_db, 2, kNoAutoCheckpoint);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
  EXPECT_EQ(v2.recovery().checkpoints_seen, 1u);
  EXPECT_EQ(legacy.recovery().checkpoints_seen, 1u);
  EXPECT_EQ(from_v2->size(), 2u);
  EXPECT_EQ(Flatten(*from_v2), Flatten(*from_legacy));
  EXPECT_EQ(v2.SessionSeq("s"), 5u);
  EXPECT_EQ(legacy.SessionSeq("s"), 5u);
  // Only V2 kept the per-token seqs, so only its tokens can be fenced.
  EXPECT_EQ(v2.Fence({{"s", 0}}), 2u);
  EXPECT_EQ(legacy.Fence({{"s", 0}}), 0u);
  // Both restore the partition countdown: a token completes on its 2nd Done.
  for (UpdateLog* log : {&v2, &legacy}) {
    log->Done(batch_id, 0);
    EXPECT_EQ(log->PendingTokens(), 2u);
    log->Done(batch_id, 0);
    EXPECT_EQ(log->PendingTokens(), 1u);
  }
}

TEST(UpdateLogTest, PausedBacklogIsNotRecheckpointedOnEveryStage) {
  // 200 staged 64-token batches that never complete (a paused node): the
  // backlog outgrows the 64 KiB threshold early on, and each checkpoint
  // record then carries all of it. Checkpointing again only once another
  // threshold's worth is appended keeps this linear.
  constexpr uint64_t kThreshold = 64 * 1024;
  constexpr int kBatches = 200;
  constexpr int kTokensPerBatch = 64;
  const std::string filler(40, 'x');
  Database db;
  {
    UpdateLog log;
    ASSERT_TRUE(log.Open(&db, 1, kThreshold).ok());
    for (int b = 0; b < kBatches; ++b) {
      std::vector<UpdateDescriptor> batch;
      for (int i = 0; i < kTokensPerBatch; ++i) {
        int64_t id = int64_t{b} * kTokensPerBatch + i;
        batch.push_back(UpdateDescriptor::Insert(
            1, Tuple({Value::Int(id), Value::String(filler)})));
      }
      ASSERT_TRUE(log.Stage(batch, nullptr).ok());
      log.MaybeCheckpoint();
    }
    EXPECT_GT(log.wal()->stats().truncations, 0u);
    EXPECT_LT(log.wal()->stats().truncations, 20u);
    EXPECT_EQ(log.PendingTokens(), uint64_t{kBatches} * kTokensPerBatch);
  }
  UpdateLog reopened;
  auto recovered = reopened.Open(&db, 1, kThreshold);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), size_t{kBatches} * kTokensPerBatch);
  for (size_t i = 0; i < recovered->size(); ++i) {
    ASSERT_EQ(IdOf((*recovered)[i]), static_cast<int64_t>(i));
  }
}

}  // namespace
}  // namespace tman
