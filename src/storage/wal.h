#ifndef TRIGGERMAN_STORAGE_WAL_H_
#define TRIGGERMAN_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/disk_manager.h"
#include "util/result.h"

namespace tman {

/// Logical position in the log: a byte offset into the append-only record
/// stream. LSNs are absolute and stable across truncation (truncation only
/// advances the stream's retained prefix), so a record's end LSN doubles as
/// its durable identity.
using Lsn = uint64_t;

/// Record types understood by the ingestion WAL. The WAL itself treats
/// payloads as opaque bytes; UpdateLog (core/update_log.h) defines the
/// payload encodings.
/// Bytes of framing each record adds to the stream (type + length +
/// checksum); a record appended at end LSN `e` with payload size `p`
/// starts at `e - p - kWalRecordOverhead`.
inline constexpr size_t kWalRecordOverhead = 9;

enum class WalRecordType : uint8_t {
  kBatch = 1,         // a submitted update batch (tokens + session stamp)
  kProcessed = 2,     // a token of an earlier batch finished processing
  kCheckpoint = 3,    // legacy checkpoint layout (pre-meta, no per-token
                      // seq); decoded on replay, never written anymore
  kMeta = 4,          // opaque durable metadata blob (latest wins; carried
                      // forward inside checkpoints so truncation keeps it)
  kCheckpointV2 = 5,  // snapshot of live state (meta blob + sessions +
                      // pending tokens with seqs); everything before is dead
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t commit_calls = 0;
  uint64_t sync_rounds = 0;    // leader rounds that hit the disk
  uint64_t piggybacked = 0;    // commits satisfied by another caller's round
  uint64_t pages_written = 0;
  uint64_t truncations = 0;
};

/// Write-ahead log with batched group commit, layered directly on the
/// DiskManager (deliberately *not* the buffer pool: WAL pages are written
/// once, in order, and must never linger dirty in a cache — the header
/// write is the commit point and everything it covers must already be on
/// disk).
///
/// Physical layout. One header page plus a singly-linked chain of data
/// pages. A data page is `[0..4) u32 next_page | [4..kPageSize) payload`;
/// the record stream runs through the payload areas in chain order. The
/// header page carries two self-checksummed copies of the header (slot A
/// at byte 0, slot B at kPageSize/2) written alternately with a rising
/// sequence number, so a torn header write leaves the other copy intact
/// and recovery picks the valid copy with the higher sequence.
///
/// Record encoding: `u8 type | u32 payload_len | u32 payload_crc |
/// payload`. Records span page boundaries freely.
///
/// Group commit. Append() only buffers the record in the volatile tail and
/// returns its end LSN; nothing is durable yet. Commit(lsn) makes the
/// stream durable *at least* through lsn: the first caller into an idle
/// log becomes the leader, snapshots the whole buffered tail (including
/// records appended by threads that have not called Commit yet), writes
/// the affected pages, syncs, and publishes the new committed LSN with one
/// header write — every concurrent committer whose record was covered
/// completes without touching the disk. This is the one-fsync-per-batch
/// idiom: the cost of durability is amortized over every record that
/// joined the round.
///
/// Durability contract: the committed LSN in the header is authoritative.
/// Replay surfaces exactly the records with end LSN <= committed, in
/// order; buffered-but-uncommitted bytes simply vanish on a crash, and a
/// failed commit round leaves them buffered for a retry. A commit round
/// that fails *after* its data-page writes may still land its header write
/// on disk (the classic lost-ack), so callers must treat commit failure as
/// "possibly durable" — TriggerMan resolves the ambiguity with per-session
/// sequence dedup at replay.
///
/// Fault sites (on the disk's shared injector): "wal.append", "wal.write"
/// (per data-page write), "wal.fsync" (before the header commit write),
/// "wal.truncate" (before the truncation header write).
///
/// Thread-safe. The destructor performs no I/O (crash tests use object
/// destruction as the kill), so anything un-committed is lost by design.
class Wal {
 public:
  /// Formats a new empty log; returns its header page id.
  static Result<PageId> Create(DiskManager* disk);

  /// Opens an existing log from its header page, validating the header
  /// copies and walking the page chain covering the committed stream.
  static Result<std::unique_ptr<Wal>> Open(DiskManager* disk,
                                           PageId header_page);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Buffers one record in the volatile tail; returns its end LSN. The
  /// record is NOT durable until a Commit covering the LSN succeeds.
  Result<Lsn> Append(WalRecordType type, std::string_view payload);

  /// Group commit: returns once the stream is durable through `lsn`.
  Status Commit(Lsn lsn);

  /// Commits everything appended so far.
  Status Sync();

  /// Drops committed records wholly below `upto` (page-granular: only
  /// whole leading pages are released). Called after a checkpoint record
  /// lands to bound log growth. Concurrent-safe with Commit.
  Status Truncate(Lsn upto);

  /// Invokes `fn(type, payload, end_lsn)` for every committed record in
  /// log order. Stops and returns the first non-OK status from `fn`;
  /// returns Corruption if the committed stream fails validation.
  Status Replay(
      const std::function<Status(WalRecordType, std::string_view, Lsn)>& fn);

  PageId header_page() const { return header_page_; }
  Lsn appended_lsn() const;
  Lsn durable_lsn() const;
  Lsn start_lsn() const;

  /// Bytes currently retained by the log (appended minus truncated) —
  /// the checkpoint trigger input.
  uint64_t RetainedBytes() const;

  WalStats stats() const;

 private:
  Wal(DiskManager* disk, PageId header_page);

  struct Header {
    uint64_t seq = 0;
    PageId first_page = kInvalidPageId;
    Lsn start = 0;       // stream offset of first_page's payload byte 0
    Lsn parse_from = 0;  // first live record boundary (>= start)
    Lsn committed = 0;
  };

  static void EncodeHeaderSlot(const Header& h, char* out);
  static bool DecodeHeaderSlot(const char* in, Header* h);

  /// Writes `h` into the non-authoritative header slot (commit point).
  Status WriteHeader(const Header& h);

  /// Leader body: makes the stream durable through at least `target`.
  /// Called with `lock` held and syncing_ == true; drops the lock for I/O
  /// and reacquires before returning.
  Status RunSyncRound(std::unique_lock<std::mutex>& lock, Lsn target);

  DiskManager* disk_;
  PageId header_page_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool syncing_ = false;        // a leader round or truncation is in flight
  uint64_t header_seq_ = 0;     // last written header sequence
  bool header_slot_b_ = false;  // which slot the last header write used
  Header last_header_;          // authoritative on-disk header image
  std::string buffer_;          // bytes [durable_, appended_) not yet synced
  Lsn start_ = 0;               // stream offset of chain_[0]'s payload
  Lsn parse_from_ = 0;          // first live record boundary
  Lsn durable_ = 0;
  Lsn appended_ = 0;
  std::vector<PageId> chain_;  // data pages covering [start_, ...)
  WalStats stats_;
};

}  // namespace tman

#endif  // TRIGGERMAN_STORAGE_WAL_H_
