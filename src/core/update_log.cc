#include "core/update_log.h"

#include <algorithm>
#include <optional>

#include "util/codec.h"
#include "util/logging.h"

namespace tman {

namespace {

constexpr char kMetaTable[] = "tman_meta";
constexpr char kWalMetaKey[] = "wal_header_page";

// WAL kBatch payload:
//   len-prefixed session (empty = unstamped, at-least-once)
//   u64 ack_seq
//   u32 token_count, then per token: u64 seq, len-prefixed descriptor
// WAL kProcessed payload: u64 batch_id, u32 token_index.
// WAL kMeta payload: the opaque blob.
// WAL kCheckpointV2 payload:
//   len-prefixed durable meta blob
//   u32 session_count, per session: len-prefixed name, u64 seq
//   u32 batch_count, per batch: u64 batch_id, len-prefixed session,
//     u32 token_count, per token: u32 index, u64 seq,
//     len-prefixed descriptor
// WAL kCheckpoint payload (legacy; still replayed, never written): the
//   kCheckpointV2 layout without the meta blob and the per-token seq.

Status WalDecodeError() {
  return Status::Corruption("wal: malformed record payload");
}

// The log's header page id, remembered in a tiny meta table. A database
// without one gets a freshly formatted, empty log.
Result<PageId> LogHeaderPage(Database* db) {
  if (!db->HasTable(kMetaTable)) {
    TMAN_RETURN_IF_ERROR(
        db->CreateTable(kMetaTable,
                        Schema({{"meta_key", DataType::kVarchar},
                                {"meta_value", DataType::kInt}}))
            .status());
  }
  std::optional<PageId> page;
  TMAN_RETURN_IF_ERROR(db->Scan(kMetaTable, [&](const Rid&, const Tuple& t) {
    if (t.at(0).as_string() == kWalMetaKey) {
      page = static_cast<PageId>(t.at(1).as_int());
      return false;
    }
    return true;
  }));
  if (page.has_value()) return *page;
  TMAN_ASSIGN_OR_RETURN(PageId created, Wal::Create(db->disk()));
  TMAN_RETURN_IF_ERROR(
      db->Insert(kMetaTable, Tuple({Value::String(kWalMetaKey),
                                    Value::Int(static_cast<int64_t>(created))}))
          .status());
  // The meta row itself must survive the next crash, or the WAL header
  // becomes unreachable.
  TMAN_RETURN_IF_ERROR(db->buffer_pool()->FlushAll());
  return created;
}

}  // namespace

Result<std::vector<UpdateLog::Recovered>> UpdateLog::Open(
    Database* db, uint32_t partitions, uint64_t checkpoint_bytes) {
  partitions_ = std::max(1u, partitions);
  checkpoint_bytes_ = checkpoint_bytes;
  TMAN_ASSIGN_OR_RETURN(PageId header, LogHeaderPage(db));
  TMAN_ASSIGN_OR_RETURN(wal_, Wal::Open(db->disk(), header));

  // Fold the committed stream in order: batches enter the pending map,
  // processed markers remove tokens, checkpoints reset the state.
  PendingMap pending;
  SessionMap sessions;
  std::string meta;
  WalRecoveryInfo info;
  TMAN_RETURN_IF_ERROR(wal_->Replay([&](WalRecordType type,
                                        std::string_view payload,
                                        Lsn end_lsn) -> Status {
    size_t pos = 0;
    switch (type) {
      case WalRecordType::kBatch: {
        std::string_view session;
        uint64_t ack_seq = 0;
        uint32_t count = 0;
        if (!GetLengthPrefixed(payload, &pos, &session) ||
            !GetU64(payload, &pos, &ack_seq) ||
            !GetU32(payload, &pos, &count)) {
          return WalDecodeError();
        }
        std::string key(session);
        uint64_t prior = key.empty() ? 0 : sessions[key];
        PendingBatch& batch = pending[end_lsn];
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t seq = 0;
          std::string_view bytes;
          if (!GetU64(payload, &pos, &seq) ||
              !GetLengthPrefixed(payload, &pos, &bytes)) {
            return WalDecodeError();
          }
          // A commit round that failed ambiguously is retried by the
          // client, so the same stamped batch can appear twice in the
          // log; the session high-water mark identifies the duplicate.
          if (!key.empty() && seq != 0 && seq <= prior) continue;
          batch.tokens.emplace(
              i, PendingToken{std::string(bytes), seq, partitions_, false});
        }
        batch.session = key;
        if (batch.tokens.empty()) pending.erase(end_lsn);
        if (!key.empty()) {
          uint64_t& high = sessions[key];
          if (ack_seq > high) high = ack_seq;
        }
        return Status::OK();
      }
      case WalRecordType::kProcessed: {
        uint64_t batch_id = 0;
        uint32_t index = 0;
        if (!GetU64(payload, &pos, &batch_id) ||
            !GetU32(payload, &pos, &index)) {
          return WalDecodeError();
        }
        auto it = pending.find(batch_id);
        if (it != pending.end()) {
          it->second.tokens.erase(index);
          if (it->second.tokens.empty()) pending.erase(it);
        }
        return Status::OK();
      }
      case WalRecordType::kMeta: {
        meta.assign(payload);
        return Status::OK();
      }
      case WalRecordType::kCheckpoint:
      case WalRecordType::kCheckpointV2: {
        ++info.checkpoints_seen;
        return DecodeCheckpoint(payload,
                                type == WalRecordType::kCheckpointV2, &meta,
                                &sessions, &pending);
      }
    }
    return Status::Corruption("wal: unknown record type");
  }));

  std::vector<Recovered> recovered;
  for (const auto& [batch_id, batch] : pending) {
    for (const auto& [index, token] : batch.tokens) {
      TMAN_ASSIGN_OR_RETURN(UpdateDescriptor descriptor,
                            UpdateDescriptor::Deserialize(token.serialized));
      recovered.push_back(Recovered{{batch_id, index}, std::move(descriptor)});
    }
  }
  info.batches_replayed = pending.size();
  info.tokens_replayed = recovered.size();
  info.sessions_restored = sessions.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_ = std::move(pending);
    sessions_ = std::move(sessions);
    meta_ = std::move(meta);
  }
  recovery_ = info;
  return recovered;
}

Status UpdateLog::DecodeCheckpoint(std::string_view payload, bool v2,
                                   std::string* meta, SessionMap* sessions,
                                   PendingMap* pending) const {
  // Legacy tokens get seq 0 (unstamped: at-least-once, the contract the
  // release that wrote them gave anyway).
  sessions->clear();
  pending->clear();
  size_t pos = 0;
  if (v2) {
    std::string_view blob;
    if (!GetLengthPrefixed(payload, &pos, &blob)) return WalDecodeError();
    meta->assign(blob);
  }
  uint32_t session_count = 0;
  if (!GetU32(payload, &pos, &session_count)) return WalDecodeError();
  for (uint32_t i = 0; i < session_count; ++i) {
    std::string_view name;
    uint64_t seq = 0;
    if (!GetLengthPrefixed(payload, &pos, &name) ||
        !GetU64(payload, &pos, &seq)) {
      return WalDecodeError();
    }
    (*sessions)[std::string(name)] = seq;
  }
  uint32_t batch_count = 0;
  if (!GetU32(payload, &pos, &batch_count)) return WalDecodeError();
  for (uint32_t b = 0; b < batch_count; ++b) {
    uint64_t batch_id = 0;
    std::string_view session;
    uint32_t token_count = 0;
    if (!GetU64(payload, &pos, &batch_id) ||
        !GetLengthPrefixed(payload, &pos, &session) ||
        !GetU32(payload, &pos, &token_count)) {
      return WalDecodeError();
    }
    PendingBatch& batch = (*pending)[batch_id];
    batch.session = std::string(session);
    for (uint32_t t = 0; t < token_count; ++t) {
      uint32_t index = 0;
      uint64_t seq = 0;
      std::string_view bytes;
      if (!GetU32(payload, &pos, &index) ||
          (v2 && !GetU64(payload, &pos, &seq)) ||
          !GetLengthPrefixed(payload, &pos, &bytes)) {
        return WalDecodeError();
      }
      batch.tokens.emplace(
          index, PendingToken{std::string(bytes), seq, partitions_, false});
    }
  }
  return Status::OK();
}

Result<uint64_t> UpdateLog::Stage(const std::vector<UpdateDescriptor>& tokens,
                                  const BatchStamp* stamp) {
  const std::string session = stamp != nullptr ? stamp->session : "";
  auto seq_of = [stamp](size_t i) -> uint64_t {
    return stamp != nullptr && i < stamp->seqs.size() ? stamp->seqs[i] : 0;
  };
  std::vector<std::string> records(tokens.size());
  std::string payload;
  PutLengthPrefixed(&payload, session);
  PutU64(&payload, stamp != nullptr ? stamp->ack_seq : 0);
  PutU32(&payload, static_cast<uint32_t>(tokens.size()));
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i].Serialize(&records[i]);
    PutU64(&payload, seq_of(i));
    PutLengthPrefixed(&payload, records[i]);
  }

  // Append + register under mutex_, so a concurrent checkpoint either
  // snapshots this batch as pending or runs entirely before the append —
  // never in between (which would truncate the batch record while losing
  // it from the snapshot).
  uint64_t batch_id = 0;
  uint64_t prev_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(batch_id,
                          wal_->Append(WalRecordType::kBatch, payload));
    if (!tokens.empty()) {
      PendingBatch& batch = pending_[batch_id];
      batch.session = session;
      for (size_t i = 0; i < tokens.size(); ++i) {
        batch.tokens[static_cast<uint32_t>(i)] =
            PendingToken{std::move(records[i]), seq_of(i), partitions_, false};
      }
    }
    if (!session.empty()) {
      uint64_t& high = sessions_[session];
      prev_seq = high;
      if (stamp->ack_seq > high) high = stamp->ack_seq;
    }
    ++commits_in_flight_;
  }

  // Group commit: the batch is durable (or rejected) past this line.
  Status committed = wal_->Commit(batch_id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (--commits_in_flight_ == 0) inflight_cv_.notify_all();
  if (committed.ok()) return batch_id;
  pending_.erase(batch_id);
  if (!session.empty()) {
    // Roll the high-water mark back unless a later batch on the same
    // session advanced it further (the IPC server serializes batches per
    // session, so that only happens for out-of-band submitters).
    auto it = sessions_.find(session);
    if (it != sessions_.end() && it->second == stamp->ack_seq) {
      it->second = prev_seq;
    }
  }
  return committed;
}

bool UpdateLog::Fenced(uint64_t batch_id, uint32_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(batch_id);
  if (it == pending_.end()) return false;
  auto tok = it->second.tokens.find(index);
  return tok != it->second.tokens.end() && tok->second.fenced;
}

void UpdateLog::Done(uint64_t batch_id, uint32_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(batch_id);
  if (it == pending_.end()) return;
  auto tok = it->second.tokens.find(index);
  if (tok == it->second.tokens.end()) return;
  if (tok->second.remaining_parts > 1) {
    --tok->second.remaining_parts;
    return;
  }
  it->second.tokens.erase(tok);
  if (it->second.tokens.empty()) pending_.erase(it);
  std::string payload;
  PutU64(&payload, batch_id);
  PutU32(&payload, index);
  // Lazily buffered: the marker rides the next commit round for free. If
  // the append fails (or the process dies first), recovery replays the
  // token — at-least-once, resolved by action idempotence or dedup.
  (void)wal_->Append(WalRecordType::kProcessed, payload);
}

void UpdateLog::MaybeCheckpoint() {
  const uint64_t retained = wal_->RetainedBytes();
  const uint64_t last = last_checkpoint_bytes_.load();
  if (retained <= last || retained - last <= checkpoint_bytes_) return;
  Status s = Checkpoint();
  if (!s.ok()) {
    TMAN_LOG(kWarn) << "wal checkpoint failed: " << s.ToString();
  }
}

Status UpdateLog::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::NotSupported("durable staging is not enabled");
  }
  bool expected = false;
  if (!checkpointing_.compare_exchange_strong(expected, true)) {
    return Status::OK();  // a checkpoint is already in flight
  }
  std::string payload;
  uint64_t end_lsn = 0;
  Status appended = Status::OK();
  {
    // Snapshot + append atomically w.r.t. Stage (see there).
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait out in-flight group commits: a batch whose commit is still
    // undecided may yet fail and be erased (with its session seq rolled
    // back), and a checkpoint that listed it would durably re-stage it on
    // replay even though the client was told to resend.
    inflight_cv_.wait(lock, [this] { return commits_in_flight_ == 0; });
    // The meta blob rides in every checkpoint, else truncation would drop
    // the kMeta record that carried it.
    PutLengthPrefixed(&payload, meta_);
    PutU32(&payload, static_cast<uint32_t>(sessions_.size()));
    for (const auto& [name, seq] : sessions_) {
      PutLengthPrefixed(&payload, name);
      PutU64(&payload, seq);
    }
    PutU32(&payload, static_cast<uint32_t>(pending_.size()));
    for (const auto& [batch_id, batch] : pending_) {
      PutU64(&payload, batch_id);
      PutLengthPrefixed(&payload, batch.session);
      PutU32(&payload, static_cast<uint32_t>(batch.tokens.size()));
      for (const auto& [index, token] : batch.tokens) {
        PutU32(&payload, index);
        PutU64(&payload, token.seq);
        PutLengthPrefixed(&payload, token.serialized);
      }
    }
    auto lsn = wal_->Append(WalRecordType::kCheckpointV2, payload);
    if (lsn.ok()) {
      end_lsn = *lsn;
    } else {
      appended = lsn.status();
    }
  }
  Status result = appended;
  if (result.ok()) result = wal_->Commit(end_lsn);
  if (result.ok()) {
    // Everything before the checkpoint record is dead; a failed truncate
    // only costs log space, never correctness.
    last_checkpoint_bytes_.store(payload.size() + kWalRecordOverhead);
    Lsn record_start = end_lsn - payload.size() - kWalRecordOverhead;
    Status trunc = wal_->Truncate(record_start);
    if (!trunc.ok()) {
      TMAN_LOG(kWarn) << "wal truncate failed: " << trunc.ToString();
    }
  }
  checkpointing_.store(false);
  return result;
}

uint64_t UpdateLog::Fence(const std::map<std::string, uint64_t>& fences) {
  std::lock_guard<std::mutex> lock(mutex_);
  // One-shot per (session, fence point): the same fence rides every later
  // map install, and re-applying it would swallow post-rejoin traffic.
  SessionMap fresh;
  for (const auto& [session, seq] : fences) {
    auto applied = fences_applied_.find(session);
    if (applied != fences_applied_.end() && applied->second >= seq) {
      continue;
    }
    fresh[session] = seq;
    fences_applied_[session] = seq;
  }
  if (fresh.empty()) return 0;
  uint64_t fenced = 0;
  for (auto& [batch_id, batch] : pending_) {
    auto fence = fresh.find(batch.session);
    if (fence == fresh.end()) continue;
    for (auto& [index, token] : batch.tokens) {
      if (token.seq != 0 && token.seq > fence->second && !token.fenced) {
        token.fenced = true;
        ++fenced;
      }
    }
  }
  return fenced;
}

Status UpdateLog::SetMeta(std::string_view blob) {
  if (wal_ == nullptr) {
    return Status::NotSupported("durable staging is not enabled");
  }
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TMAN_ASSIGN_OR_RETURN(lsn, wal_->Append(WalRecordType::kMeta, blob));
    meta_.assign(blob);
  }
  return wal_->Commit(lsn);
}

std::string UpdateLog::Meta() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return meta_;
}

uint64_t UpdateLog::SessionSeq(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second;
}

uint64_t UpdateLog::PendingTokens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& [batch_id, batch] : pending_) n += batch.tokens.size();
  return n;
}

}  // namespace tman
