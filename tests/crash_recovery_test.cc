// Kill-and-recover crash tests for durable ingestion (storage/wal.h +
// TriggerManager durable_wal). The methodology:
//
//   1. Enumerate every fault site the durable storage stack registers
//      (FaultInjector::RegisteredSites()) — each is a crash point.
//   2. For each site (x countdown depth), run a seeded
//      deterministic workload (two stamped ingest sessions, a task
//      driver, a checkpointer) against a live TriggerManager until the
//      armed fault trips, then KILL the instance: destroy it with no
//      clean shutdown. The Database underneath is the durable host; the
//      TriggerManager (WAL tail buffer, task queue, session maps) is the
//      process image and dies with its destructor, which does no I/O.
//   3. Reopen from disk: a fresh TriggerManager's Open() runs WAL
//      recovery. Differentially check against a shadow oracle built
//      while the first instance ran.
//
// Oracle invariants (the durability contract of DESIGN.md §11):
//   * an acked token fires at least once (pre-kill or after replay);
//   * an acked token that did NOT fire pre-kill fires after recovery
//     EXACTLY once (acked-but-unprocessed => exactly-once replay);
//   * no token fires twice on either side of the kill (dups are allowed
//     only across the kill, for tokens processed right before it — the
//     documented lost-processed-marker ambiguity);
//   * only submitted tokens ever fire;
//   * recovered session high-water marks bound the acked/assigned seqs,
//     so the IPC dedup contract survives the restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "db/database.h"
#include "runtime/deterministic.h"
#include "storage/wal.h"
#include "util/codec.h"
#include "util/fault_injector.h"

namespace tman {
namespace {

constexpr int kBatchesPerSession = 4;
constexpr int kTokensPerBatch = 3;

// Shadow oracle built while the pre-kill instance runs.
struct Oracle {
  std::set<int64_t> submitted;
  std::set<int64_t> acked;
  std::map<int64_t, int> fired_pre;
  std::map<int64_t, int> fired_post;
  // Per session: high-water of acked ack_seq / highest assigned seq.
  std::map<std::string, uint64_t> acked_high;
  std::map<std::string, uint64_t> assigned_high;
  bool crashed = false;
  uint64_t site_faults = 0;  // injected faults at `stat_site`
};

// One ingest session actor: submits stamped batches the way the IPC
// server does, and on a failed submit resends the identical batch (same
// tokens, same seqs) — the client-reconnect contract the dedup protocol
// assumes.
struct SessionState {
  std::string name;
  int64_t id_base = 0;
  uint64_t next_seq = 1;
  int batches_acked = 0;
  bool retry = false;
  std::vector<UpdateDescriptor> tokens;
  BatchStamp stamp;
  std::vector<int64_t> ids;
};

TriggerManagerOptions DurableOptions() {
  TriggerManagerOptions opts;
  opts.durable_wal = true;
  opts.wal_checkpoint_bytes = 1024;  // small: checkpoints happen in-test
  return opts;
}

/// Runs one kill-and-recover cycle into `oracle`. `arm` (may be empty)
/// arms the fault injector after setup; `stat_site` (may be empty) names
/// the site whose injected-fault count to report; `run_drivers` controls
/// whether pre-kill tokens get processed at all; `partitions` is the
/// engine's condition_partitions, so a token completes only after that
/// many tasks. EXPECTs the durability invariants; `context` tags every
/// failure message.
void RunCycle(Oracle* oracle, uint64_t seed,
              const std::function<void(FaultInjector*)>& arm,
              const std::string& stat_site, bool run_drivers,
              uint32_t partitions, const std::string& context) {
  Database db;
  FaultInjector* faults = db.disk()->fault_injector();
  TriggerManagerOptions opts = DurableOptions();
  opts.condition_partitions = partitions;
  Schema feed({{"id", DataType::kInt}});
  DataSourceId ds = 0;

  // --- phase A: live instance, seeded workload, kill on first fault ----
  {
    TriggerManager a(&db, opts);
    Status open = a.Open();
    ASSERT_TRUE(open.ok()) << context << ": " << open.ToString();
    auto src = a.DefineStreamSource("feed", feed);
    ASSERT_TRUE(src.ok()) << context;
    ds = *src;
    auto cmd = a.ExecuteCommand(
        "create trigger watch from feed when feed.id >= 0 "
        "do raise event Seen(feed.id)");
    ASSERT_TRUE(cmd.ok()) << context << ": " << cmd.status().ToString();
    a.events().Register("Seen", [&](const Event& e) {
      oracle->fired_pre[e.args[0].as_int()]++;
    });

    if (arm) arm(faults);

    DeterministicScheduler sched(seed);
    bool crashed = false;
    auto check_crash = [&] {
      if (faults->total_faults() > 0) crashed = true;
      return crashed;
    };

    std::vector<std::unique_ptr<SessionState>> sessions;
    for (int i = 0; i < 2; ++i) {
      auto s = std::make_unique<SessionState>();
      s->name = i == 0 ? "alpha" : "beta";
      s->id_base = (i + 1) * 100000;
      sessions.push_back(std::move(s));
    }
    for (auto& sp : sessions) {
      SessionState* s = sp.get();
      sched.AddActor(s->name, [&, s] {
        if (check_crash()) return false;
        if (!s->retry) {
          if (s->batches_acked >= kBatchesPerSession) return false;
          s->tokens.clear();
          s->ids.clear();
          s->stamp = BatchStamp();
          s->stamp.session = s->name;
          for (int i = 0; i < kTokensPerBatch; ++i) {
            uint64_t seq = s->next_seq + i;
            int64_t id = s->id_base + static_cast<int64_t>(seq);
            s->ids.push_back(id);
            s->stamp.seqs.push_back(seq);
            s->tokens.push_back(
                UpdateDescriptor::Insert(ds, Tuple({Value::Int(id)})));
            oracle->submitted.insert(id);
          }
          s->stamp.ack_seq = s->next_seq + kTokensPerBatch - 1;
          uint64_t& high = oracle->assigned_high[s->name];
          high = std::max(high, s->stamp.ack_seq);
        }
        std::vector<Status> per;
        Status st = a.SubmitUpdateBatch(s->tokens, &per, &s->stamp);
        if (st.ok()) {
          for (int64_t id : s->ids) oracle->acked.insert(id);
          oracle->acked_high[s->name] = s->stamp.ack_seq;
          s->next_seq = s->stamp.ack_seq + 1;
          ++s->batches_acked;
          s->retry = false;
        } else {
          // The durable contract: a failed submit staged nothing and
          // advanced no session state; resend the identical batch.
          s->retry = true;
        }
        return !check_crash();
      });
    }

    auto producers_done = [&] {
      for (auto& sp : sessions) {
        if (sp->retry || sp->batches_acked < kBatchesPerSession) return false;
      }
      return true;
    };
    int ckpts = 0;  // outlives the if: the actor runs in sched.Run below
    if (run_drivers) {
      sched.AddActor("drv", [&] {
        if (check_crash()) return false;
        Task t;
        if (a.task_queue().TryPop(&t)) {
          (void)t.work();  // failures show up via the fault injector
          return true;
        }
        return !producers_done();
      });
      sched.AddActor("ckpt", [&] {
        if (check_crash()) return false;
        (void)a.CheckpointWal();  // may fail under injected faults
        return ++ckpts < 5;
      });
    }

    sched.Run(20000);
    oracle->crashed = faults->total_faults() > 0;
    if (!stat_site.empty()) {
      oracle->site_faults = faults->site_stats(stat_site).faults;
    }
    faults->ClearAll();
    // Scope exit destroys `a` with no clean shutdown: the kill. Nothing
    // in ~TriggerManager writes to the database.
  }

  // --- phase B: reopen from disk and recover ---------------------------
  {
    TriggerManager b(&db, opts);
    Status open = b.Open();
    ASSERT_TRUE(open.ok()) << context << ": " << open.ToString();
    b.events().Register("Seen", [&](const Event& e) {
      oracle->fired_post[e.args[0].as_int()]++;
    });
    Status drained = b.ProcessPending();
    ASSERT_TRUE(drained.ok()) << context << ": " << drained.ToString();
    EXPECT_EQ(b.WalPendingTokens(), 0u) << context;

    for (const auto& [session, acked_high] : oracle->acked_high) {
      uint64_t recovered = b.RecoveredSessionSeq(session);
      EXPECT_GE(recovered, acked_high) << context << " session " << session;
      EXPECT_LE(recovered, oracle->assigned_high[session])
          << context << " session " << session;
    }

    // The differential oracle check.
    for (int64_t id : oracle->submitted) {
      int pre = oracle->fired_pre.count(id) ? oracle->fired_pre[id] : 0;
      int post = oracle->fired_post.count(id) ? oracle->fired_post[id] : 0;
      EXPECT_LE(pre, 1) << context << " token " << id
                        << " fired twice before the kill";
      EXPECT_LE(post, 1) << context << " token " << id
                         << " replayed more than once";
      if (oracle->acked.count(id)) {
        EXPECT_GE(pre + post, 1)
            << context << " acked token " << id << " lost";
        if (pre == 0) {
          EXPECT_EQ(post, 1) << context << " acked-but-unprocessed token "
                             << id << " not replayed exactly once";
        }
      }
    }
    for (const auto& [id, n] : oracle->fired_pre) {
      EXPECT_TRUE(oracle->submitted.count(id))
          << context << " phantom pre-kill firing " << id << " x" << n;
    }
    for (const auto& [id, n] : oracle->fired_post) {
      EXPECT_TRUE(oracle->submitted.count(id))
          << context << " phantom replay firing " << id << " x" << n;
    }

    // --- phase C setup: checkpoint after the full drain ----------------
    // Persists the processed-markers' effect (empty pending set) and the
    // session map, then kill again.
    Status ck = b.CheckpointWal();
    ASSERT_TRUE(ck.ok()) << context << ": " << ck.ToString();
  }

  // --- phase C: a third incarnation must replay nothing yet keep the
  // session dedup high-water marks.
  {
    TriggerManager c(&db, opts);
    Status open = c.Open();
    ASSERT_TRUE(open.ok()) << context << ": " << open.ToString();
    std::map<int64_t, int> fired_c;
    c.events().Register("Seen", [&](const Event& e) {
      fired_c[e.args[0].as_int()]++;
    });
    Status drained = c.ProcessPending();
    ASSERT_TRUE(drained.ok()) << context << ": " << drained.ToString();
    EXPECT_TRUE(fired_c.empty())
        << context << " tokens replayed after a checkpointed drain";
    for (const auto& [session, acked_high] : oracle->acked_high) {
      EXPECT_GE(c.RecoveredSessionSeq(session), acked_high)
          << context << " session dedup state lost by checkpoint";
    }
  }
}

// --- the enumeration contract ------------------------------------------

TEST(CrashRecoveryTest, DurableStackRegistersAllCrashPoints) {
  Database db;
  TriggerManager tman(&db, DurableOptions());
  ASSERT_TRUE(tman.Open().ok());
  std::vector<std::string> sites =
      db.disk()->fault_injector()->RegisteredSites();
  std::set<std::string> have(sites.begin(), sites.end());
  for (const char* site :
       {"disk.read", "disk.write", "disk.write.short", "disk.sync",
        "buffer.fetch", "buffer.new", "buffer.flush", "wal.append",
        "wal.write", "wal.fsync", "wal.truncate"}) {
    EXPECT_TRUE(have.count(site)) << "site not registered: " << site;
  }
}

// --- clean kill: acked-but-unprocessed tokens replay exactly once ------

TEST(CrashRecoveryTest, CleanKillReplaysAckedUnprocessedExactlyOnce) {
  // No drivers: every acked token is still unprocessed at the kill.
  Oracle o;
  RunCycle(&o, /*seed=*/7, /*arm=*/{}, /*stat_site=*/"",
           /*run_drivers=*/false, /*partitions=*/1, "clean");
  EXPECT_FALSE(o.crashed);
  EXPECT_EQ(o.acked.size(),
            static_cast<size_t>(2 * kBatchesPerSession * kTokensPerBatch));
  for (int64_t id : o.acked) {
    EXPECT_EQ(o.fired_pre.count(id), 0u);
    EXPECT_EQ(o.fired_post[id], 1);
  }
}

// --- the site matrix: kill at every registered crash point -------------

TEST(CrashRecoveryTest, KillAndRecoverAtEveryRegisteredFaultSite) {
  std::map<std::string, uint64_t> tripped;  // site -> total injected faults
  std::set<std::string> must_trip;
  uint64_t seed = 1;
  // Enumerate the sites the durable stack registers.
  std::vector<std::string> sites;
  {
    Database db;
    TriggerManager tman(&db, DurableOptions());
    ASSERT_TRUE(tman.Open().ok());
    sites = db.disk()->fault_injector()->RegisteredSites();
  }
  ASSERT_FALSE(sites.empty());
  // Condition partitions outermost: the single-partition sweep keeps its
  // seeds, and the four-partition sweep kills tokens mid-countdown.
  for (uint32_t partitions : {1u, 4u}) {
    for (const std::string& site : sites) {
      // The workload must be able to reach every wal/disk crash point;
      // buffer.* sites are enumerated and armed too, but some
      // (buffer.flush) have no durable-path caller mid-workload.
      if (site.rfind("wal.", 0) == 0 || site.rfind("disk.", 0) == 0) {
        must_trip.insert(site);
      }
      for (uint64_t hits : {0u, 1u, 4u}) {
        std::string context = site + "/hits=" + std::to_string(hits) +
                              "/partitions=" + std::to_string(partitions) +
                              "/seed=" + std::to_string(seed);
        Oracle o;
        RunCycle(&o, seed++,
                 [&](FaultInjector* f) { f->ArmCountdown(site, hits); },
                 /*stat_site=*/site, /*run_drivers=*/true, partitions,
                 context);
        tripped[site] += o.site_faults;
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  for (const std::string& site : must_trip) {
    EXPECT_GT(tripped[site], 0u)
        << "crash point never reached by the workload: " << site;
  }
}

// --- seeded randomized storms ------------------------------------------

TEST(CrashRecoveryTest, SeededFaultStormsRecover) {
  for (uint32_t partitions : {1u, 4u}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      std::string context = "storm/partitions=" + std::to_string(partitions) +
                            "/seed=" + std::to_string(seed);
      Oracle o;
      RunCycle(&o, seed,
               [&](FaultInjector* f) {
                 f->ArmProbability("wal.*", 0.04, seed * 13 + 1);
                 f->ArmProbability("disk.sync", 0.02, seed * 13 + 2);
               },
               /*stat_site=*/"", /*run_drivers=*/true, partitions, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- fault during recovery itself --------------------------------------

TEST(CrashRecoveryTest, FaultDuringRecoveryFailsCleanlyThenSucceeds) {
  Database db;
  TriggerManagerOptions opts = DurableOptions();
  Schema feed({{"id", DataType::kInt}});
  {
    TriggerManager a(&db, opts);
    ASSERT_TRUE(a.Open().ok());
    auto ds = a.DefineStreamSource("feed", feed);
    ASSERT_TRUE(ds.ok());
    ASSERT_TRUE(a.ExecuteCommand("create trigger watch from feed "
                                 "when feed.id >= 0 "
                                 "do raise event Seen(feed.id)")
                    .ok());
    BatchStamp stamp;
    stamp.session = "alpha";
    std::vector<UpdateDescriptor> tokens;
    for (int i = 0; i < 6; ++i) {
      tokens.push_back(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(i)})));
      stamp.seqs.push_back(i + 1);
    }
    stamp.ack_seq = 6;
    ASSERT_TRUE(a.SubmitUpdateBatch(tokens, nullptr, &stamp).ok());
    // Kill without processing.
  }
  // Recovery that hits a disk fault must fail cleanly (no partial
  // instance), and a retry after the fault clears must replay everything.
  {
    db.disk()->fault_injector()->ArmCountdown("disk.read", 2);
    TriggerManager b(&db, opts);
    EXPECT_FALSE(b.Open().ok());
    db.disk()->fault_injector()->ClearAll();
  }
  {
    TriggerManager c(&db, opts);
    ASSERT_TRUE(c.Open().ok());
    std::map<int64_t, int> fired;
    c.events().Register("Seen", [&](const Event& e) {
      fired[e.args[0].as_int()]++;
    });
    ASSERT_TRUE(c.ProcessPending().ok());
    EXPECT_EQ(fired.size(), 6u);
    for (const auto& [id, n] : fired) {
      EXPECT_EQ(n, 1) << "token " << id;
    }
    EXPECT_EQ(c.RecoveredSessionSeq("alpha"), 6u);
  }
}

// --- checkpoint racing a failing group commit --------------------------
//
// A checkpoint must not snapshot a batch whose group commit is still in
// flight: if that commit then fails, the submitter erases the batch and
// rolls the session seq back (the client is told to resend), but a
// durable checkpoint listing the batch would re-stage it unconditionally
// on replay — firing the same logical token a second time on top of the
// dedup-passing resend.

TEST(CrashRecoveryTest, CheckpointDuringFailedCommitDoesNotResurrectBatch) {
  Database db;
  TriggerManagerOptions opts = DurableOptions();
  Schema feed({{"id", DataType::kInt}});
  std::map<int64_t, int> fired_pre, fired_post;
  {
    TriggerManager a(&db, opts);
    ASSERT_TRUE(a.Open().ok());
    auto ds = a.DefineStreamSource("feed", feed);
    ASSERT_TRUE(ds.ok());
    ASSERT_TRUE(a.ExecuteCommand("create trigger watch from feed "
                                 "when feed.id >= 0 "
                                 "do raise event Seen(feed.id)")
                    .ok());
    a.events().Register("Seen", [&](const Event& e) {
      fired_pre[e.args[0].as_int()]++;
    });

    BatchStamp stamp;
    stamp.session = "alpha";
    stamp.seqs = {1, 2};
    stamp.ack_seq = 2;
    std::vector<UpdateDescriptor> tokens;
    tokens.push_back(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(1)})));
    tokens.push_back(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(2)})));

    FaultInjector* faults = db.disk()->fault_injector();
    // Slow page writes widen the window in which the batch's commit is in
    // flight; the armed fsync then fails that commit.
    db.disk()->set_access_latency_ns(20 * 1000 * 1000);
    faults->ArmCountdown("wal.fsync", 0);

    Status submit_status;
    std::thread submitter([&] {
      submit_status = a.SubmitUpdateBatch(tokens, nullptr, &stamp);
    });
    // Once the batch is registered its commit is pending; checkpoint
    // concurrently with the commit that is about to fail.
    for (int i = 0; i < 1000 && a.WalPendingTokens() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread checkpointer([&] { (void)a.CheckpointWal(); });
    submitter.join();
    faults->ClearAll();
    db.disk()->set_access_latency_ns(0);
    checkpointer.join();
    ASSERT_FALSE(submit_status.ok());

    // The client-reconnect contract: resend the identical stamped batch,
    // which must now be acked and fire exactly once.
    ASSERT_TRUE(a.SubmitUpdateBatch(tokens, nullptr, &stamp).ok());
    ASSERT_TRUE(a.ProcessPending().ok());
    EXPECT_EQ(fired_pre[1], 1);
    EXPECT_EQ(fired_pre[2], 1);
    // Flush the resent batch's processed markers with one more durable
    // submission (its group commit covers the buffered markers), so the
    // replay below owes tokens 1 and 2 nothing at all.
    ASSERT_TRUE(
        a.SubmitUpdate(UpdateDescriptor::Insert(*ds, Tuple({Value::Int(99)})))
            .ok());
    // Kill: scope exit, no clean shutdown.
  }
  {
    TriggerManager b(&db, opts);
    ASSERT_TRUE(b.Open().ok());
    b.events().Register("Seen", [&](const Event& e) {
      fired_post[e.args[0].as_int()]++;
    });
    ASSERT_TRUE(b.ProcessPending().ok());
    // Tokens 1 and 2 were acked, processed, and their markers committed;
    // any replay of them can only come from a checkpoint that snapshotted
    // the failed first submission.
    EXPECT_EQ(fired_post[1], 0) << "failed batch resurrected by checkpoint";
    EXPECT_EQ(fired_post[2], 0) << "failed batch resurrected by checkpoint";
    EXPECT_GE(b.RecoveredSessionSeq("alpha"), 2u);
  }
}

// --- legacy (pre-V2) checkpoint records still replay -------------------
//
// The checkpoint payload grew a meta blob and per-token sequence stamps
// (WalRecordType::kCheckpointV2); logs written by the previous release
// end in old-layout kCheckpoint records. Recovery must keep decoding
// those — a version bump that misparsed them would turn every upgrade
// into a corrupt-log failure or, worse, silently wrong session seqs.

TEST(CrashRecoveryTest, LegacyCheckpointRecordReplaysAfterUpgrade) {
  Database db;
  TriggerManagerOptions opts = DurableOptions();
  Schema feed({{"id", DataType::kInt}});
  {
    TriggerManager a(&db, opts);
    ASSERT_TRUE(a.Open().ok());
    auto ds = a.DefineStreamSource("feed", feed);
    ASSERT_TRUE(ds.ok());
    ASSERT_TRUE(a.ExecuteCommand("create trigger watch from feed "
                                 "when feed.id >= 0 "
                                 "do raise event Seen(feed.id)")
                    .ok());
    // Handcraft an old-layout checkpoint exactly as the previous release
    // wrote it: sessions (name, seq), then pending batches with bare
    // (index, descriptor) tokens — no meta blob, no per-token seq.
    std::string tok100, tok101;
    UpdateDescriptor::Insert(*ds, Tuple({Value::Int(100)})).Serialize(&tok100);
    UpdateDescriptor::Insert(*ds, Tuple({Value::Int(101)})).Serialize(&tok101);
    std::string payload;
    PutU32(&payload, 1);  // session count
    PutLengthPrefixed(&payload, "legacy");
    PutU64(&payload, 7);
    PutU32(&payload, 1);  // batch count
    PutU64(&payload, 42);
    PutLengthPrefixed(&payload, "legacy");
    PutU32(&payload, 2);  // token count
    PutU32(&payload, 0);
    PutLengthPrefixed(&payload, tok100);
    PutU32(&payload, 1);
    PutLengthPrefixed(&payload, tok101);
    auto lsn = a.wal()->Append(WalRecordType::kCheckpoint, payload);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    ASSERT_TRUE(a.wal()->Commit(*lsn).ok());
    // Kill without processing.
  }
  {
    TriggerManager b(&db, opts);
    ASSERT_TRUE(b.Open().ok());
    EXPECT_EQ(b.last_recovery().checkpoints_seen, 1u);
    EXPECT_EQ(b.RecoveredSessionSeq("legacy"), 7u);
    EXPECT_EQ(b.WalPendingTokens(), 2u);
    std::map<int64_t, int> fired;
    b.events().Register("Seen", [&](const Event& e) {
      fired[e.args[0].as_int()]++;
    });
    ASSERT_TRUE(b.ProcessPending().ok());
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[100], 1);
    EXPECT_EQ(fired[101], 1);
    // A V2 checkpoint written now must not confuse a further reopen.
    ASSERT_TRUE(b.CheckpointWal().ok());
  }
  {
    TriggerManager c(&db, opts);
    ASSERT_TRUE(c.Open().ok());
    EXPECT_EQ(c.RecoveredSessionSeq("legacy"), 7u);
    EXPECT_EQ(c.WalPendingTokens(), 0u);
  }
}

}  // namespace
}  // namespace tman
