// In-process cluster tests under the deterministic scheduler: a
// ClusterRouter and N ClusterNode-wrapped TriggerManagers wired with
// bounded pollable loopback pipes, every component advanced one bounded
// step at a time by seeded interleaving. Same seed, same failover
// schedule — a failing kill/rejoin/repartition scenario replays exactly.
//
// The oracle mirrors crash_recovery_test, lifted cluster-wide:
//   * every token the router acked to the client fires at least once,
//     on some node, eventually (failover re-routes unacked work; WAL
//     replay after rejoin recovers acked-but-unfired work);
//   * no token fires twice, EXCEPT tokens a killed node fired right
//     before its death (the documented lost-processed-marker ambiguity:
//     they may replay once after rejoin), which may fire at most twice;
//   * a muted (silent, not destroyed) node is detected by heartbeat
//     misses and failed over with STRICT exactly-once: rejoin fences
//     stop its staged-but-unfired tokens from firing a second copy;
//   * after the dust settles the partition map converges: every alive
//     node holds the router's epoch and owner vector.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/frame_conn.h"
#include "cluster/hash_ring.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "core/trigger_manager.h"
#include "db/database.h"
#include "ipc/loopback.h"
#include "runtime/deterministic.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace tman {
namespace {

TriggerManagerOptions DurableOptions() {
  TriggerManagerOptions opts;
  opts.durable_wal = true;
  opts.persistent_queue = true;
  opts.wal_checkpoint_bytes = 1024;
  return opts;
}

MembershipOptions TestMembership() {
  MembershipOptions m;
  m.heartbeat_interval_ms = 10;  // logical ms; the router actor ticks 1/step
  m.miss_threshold = 3;
  m.max_probe_interval_ms = 80;
  return m;
}

// One member slot. The Database is the durable host and outlives kills;
// a kill destroys the ClusterNode and TriggerManager with no clean
// shutdown (their destructors do no I/O), a reboot recovers from WAL.
struct NodeSlot {
  std::string name;
  std::unique_ptr<Database> db;
  std::unique_ptr<TriggerManager> tman;
  std::unique_ptr<ClusterNode> node;
  std::map<int64_t, int> cur_fired;  // fired by the current incarnation
  bool alive = false;
  bool muted = false;  // silent: no pumping, no task popping (not dead)
  int boots = 0;
};

class Cluster {
 public:
  explicit Cluster(size_t n) {
    config_.num_partitions = 16;
    config_.virtual_nodes = 16;
    for (size_t i = 0; i < n; ++i) {
      auto slot = std::make_unique<NodeSlot>();
      slot->name = "n" + std::to_string(i);
      slot->db = std::make_unique<Database>();
      slots_.push_back(std::move(slot));
    }
  }

  void BootAll() {
    for (size_t i = 0; i < slots_.size(); ++i) BootNode(i);
  }

  void BootNode(size_t i) {
    NodeSlot& s = *slots_[i];
    ASSERT_FALSE(s.alive);
    s.tman = std::make_unique<TriggerManager>(s.db.get(), DurableOptions());
    Status open = s.tman->Open();
    ASSERT_TRUE(open.ok()) << s.name << ": " << open.ToString();
    if (s.boots == 0) {
      Schema feed({{"id", DataType::kInt}});
      auto src = s.tman->DefineStreamSource("feed", feed);
      ASSERT_TRUE(src.ok()) << s.name;
      if (i == 0) {
        ds_ = *src;
        // Hot-source equivalence-class routing: spread feed's stream by
        // the id column so every node owns a share of it.
        config_.ec_key_columns[ds_] = 0;
      } else {
        ASSERT_EQ(*src, ds_) << "source ids must agree across members";
      }
      auto cmd = s.tman->ExecuteCommand(
          "create trigger watch from feed when feed.id >= 0 "
          "do raise event Seen(feed.id)");
      ASSERT_TRUE(cmd.ok()) << s.name << ": " << cmd.status().ToString();
    }
    // Catalog (source + trigger) persists in the Database across reboots;
    // event consumers are per-incarnation.
    NodeSlot* sp = &s;
    s.tman->events().Register("Seen", [sp](const Event& e) {
      sp->cur_fired[e.args[0].as_int()]++;
    });
    ClusterNodeOptions node_opts;
    node_opts.name = s.name;
    node_opts.config = config_;
    node_opts.router_lease_ms = router_lease_ms_;
    s.node = std::make_unique<ClusterNode>(s.tman.get(), node_opts);
    s.alive = true;
    s.muted = false;
    ++s.boots;
  }

  // Kill: merge this incarnation's firings into the totals and mark them
  // ambiguous (their processed markers may not have been committed; a
  // rejoin may replay them once). Destructor order matters: the node
  // wraps the tman.
  void KillNode(size_t i) {
    NodeSlot& s = *slots_[i];
    for (const auto& [id, n] : s.cur_fired) {
      fired_total_[id] += n;
      ambiguous_.insert(id);
    }
    s.cur_fired.clear();
    s.node.reset();
    s.tman.reset();
    s.alive = false;
  }

  // A mute is not a kill: the incarnation lives on, but anything it fired
  // before going silent may have an ack stuck in its outbox — the router
  // declares it dead and re-routes those tokens, so they carry the same
  // lost-ack <=2 ambiguity as a kill. RunScenario calls this at the mute
  // and again at the death verdict. Tokens it had NOT fired by then stay
  // strict: rejoin fences stop their staged copies.
  void MarkFiredAmbiguous(size_t i) {
    for (const auto& [id, n] : slots_[i]->cur_fired) ambiguous_.insert(id);
  }

  // Merge every still-running incarnation (end of scenario; no ambiguity).
  void FinishFirings() {
    for (auto& slot : slots_) {
      for (const auto& [id, n] : slot->cur_fired) fired_total_[id] += n;
      slot->cur_fired.clear();
    }
  }

  ClusterRouter::NodeConnector ConnectorFor(size_t i) {
    return [this, i]() -> Result<std::unique_ptr<PollableTransport>> {
      NodeSlot& s = *slots_[i];
      if (!s.alive || s.node == nullptr) {
        return Status::Unavailable(s.name + " is down");
      }
      auto pair = CreatePollableLoopbackPair(1 << 18);
      s.node->AddConnection(std::move(pair.second));
      return std::move(pair.first);
    };
  }

  void RegisterNodes(ClusterRouter* router) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      router->AddNode(slots_[i]->name, ConnectorFor(i));
    }
  }

  // One bounded deterministic step of node i: pump connections, then run
  // at most one task (recovered tokens wait out the fencing hold). A
  // non-zero `now_ms` feeds the node's router-liveness lease clock.
  bool StepNode(size_t i, uint64_t now_ms = 0) {
    NodeSlot& s = *slots_[i];
    if (!s.alive || s.muted) return false;
    bool progress = s.node->Pump(now_ms);
    if (!s.node->processing_held()) {
      Task task;
      if (s.tman->task_queue().TryPop(&task)) {
        (void)task.work();
        s.tman->task_queue().MarkDone();
        progress = true;
      }
    }
    return progress;
  }

  bool QueuesDrained() const {
    for (const auto& s : slots_) {
      if (!s->alive || s->muted) continue;
      if (s->node->processing_held()) return false;
      if (!s->tman->task_queue().empty() ||
          s->tman->task_queue().in_flight() != 0) {
        return false;
      }
    }
    return true;
  }

  bool MapsConverged(const ClusterRouter& router) const {
    PartitionMap map = router.partition_map();
    for (const auto& s : slots_) {
      if (!s->alive || s->muted) continue;
      if (s->node->epoch() != map.epoch) return false;
    }
    return true;
  }

  UpdateDescriptor Token(int64_t id) const {
    return UpdateDescriptor::Insert(ds_, Tuple({Value::Int(id)}));
  }

  // The cluster-wide differential check. `acked` ids must fire exactly
  // once — twice only if `strict` is off and the id is ambiguous (fired
  // on a killed incarnation pre-kill).
  void CheckExactlyOnce(const std::set<int64_t>& submitted,
                        const std::set<int64_t>& acked, bool strict,
                        const std::string& context) {
    for (int64_t id : submitted) {
      auto it = fired_total_.find(id);
      int total = it == fired_total_.end() ? 0 : it->second;
      if (acked.count(id)) {
        EXPECT_GE(total, 1) << context << ": acked token " << id << " lost";
        if (strict || !ambiguous_.count(id)) {
          EXPECT_EQ(total, 1)
              << context << ": token " << id << " fired " << total << "x";
        } else {
          EXPECT_LE(total, 2)
              << context << ": token " << id << " fired " << total << "x";
        }
      } else {
        EXPECT_LE(total, 1) << context << ": unacked token " << id;
      }
    }
    for (const auto& [id, n] : fired_total_) {
      EXPECT_TRUE(submitted.count(id))
          << context << ": phantom firing " << id << " x" << n;
    }
  }

  // Opt-in for nodes booted after this call: self-hold when no router
  // frame arrives within `ms` of logical clock (0 disables, the default).
  void set_router_lease_ms(uint64_t ms) { router_lease_ms_ = ms; }

  const ClusterConfig& config() const { return config_; }
  DataSourceId ds() const { return ds_; }
  size_t size() const { return slots_.size(); }
  NodeSlot& slot(size_t i) { return *slots_[i]; }
  const std::map<int64_t, int>& fired_total() const { return fired_total_; }
  const std::set<int64_t>& ambiguous() const { return ambiguous_; }

 private:
  ClusterConfig config_;
  uint64_t router_lease_ms_ = 0;
  DataSourceId ds_ = 0;
  std::vector<std::unique_ptr<NodeSlot>> slots_;
  std::map<int64_t, int> fired_total_;
  std::set<int64_t> ambiguous_;
};

struct ScenarioResult {
  std::set<int64_t> submitted;
  std::set<int64_t> acked;
  uint64_t steps = 0;
  bool completed = false;
};

// Generic scenario driver: N tokens through the router; optionally kill
// one node after `kill_after` tokens were submitted, optionally reboot it
// `rejoin_delay` router pumps later. Runs until every token is acked,
// every queue drained and the maps converge (or the step budget runs out).
ScenarioResult RunScenario(Cluster* cluster, ClusterRouter* router,
                           uint64_t seed, int total_tokens, int kill_after,
                           int victim, int rejoin_delay, bool mute_instead,
                           const std::string& session = "client",
                           int64_t base_id = 1000) {
  ScenarioResult result;
  DeterministicScheduler sched(seed);
  bool done = false;
  uint64_t now_ms = 0;
  int submitted = 0;
  bool killed = false;
  bool rejoined = false;
  int pumps_since_kill = 0;
  std::vector<int64_t> id_by_seq;  // seq - 1 -> token id

  for (size_t i = 0; i < cluster->size(); ++i) {
    sched.AddActor(cluster->slot(i).name, [cluster, i, &done] {
      cluster->StepNode(i);
      return !done;
    });
  }

  uint64_t failovers = router->stats().failovers;
  sched.AddActor("router", [&] {
    now_ms += 1;
    router->PumpOnce(now_ms);
    // A muted victim keeps its router channel until the death verdict, so
    // tokens it fires after waking but before the verdict are
    // at-least-once as well (DESIGN §12): widen the ambiguity to
    // everything it fired up to the failover.
    if (mute_instead && router->stats().failovers > failovers) {
      failovers = router->stats().failovers;
      cluster->MarkFiredAmbiguous(victim);
    }
    if (killed && !rejoined) ++pumps_since_kill;
    if (killed && !rejoined && rejoin_delay >= 0 &&
        pumps_since_kill >= rejoin_delay) {
      if (mute_instead) {
        cluster->slot(victim).muted = false;
      } else {
        cluster->BootNode(victim);
      }
      rejoined = true;
    }
    // Completion: everything acked, processed, and the map settled.
    if (submitted == total_tokens &&
        router->AckedSeq(session) == static_cast<uint64_t>(total_tokens) &&
        router->Idle() && cluster->QueuesDrained() &&
        (!killed || rejoined || rejoin_delay < 0) &&
        cluster->MapsConverged(*router)) {
      done = true;
    }
    return !done;
  });

  sched.AddActor("client", [&] {
    if (submitted < total_tokens) {
      int64_t id = base_id + submitted;
      result.submitted.insert(id);
      id_by_seq.push_back(id);
      router->Submit(session, cluster->Token(id));
      ++submitted;
      if (!killed && kill_after >= 0 && submitted >= kill_after) {
        if (mute_instead) {
          cluster->slot(victim).muted = true;
          cluster->MarkFiredAmbiguous(victim);
        } else {
          cluster->KillNode(victim);
        }
        killed = true;
      }
    }
    return !done;
  });

  result.steps = sched.Run(400000);
  result.completed = done;
  uint64_t acked_seq = router->AckedSeq(session);
  for (uint64_t seq = 1; seq <= acked_seq && seq <= id_by_seq.size(); ++seq) {
    result.acked.insert(id_by_seq[seq - 1]);
  }
  cluster->FinishFirings();
  return result;
}

// --- basic routing -----------------------------------------------------

TEST(ClusterTest, ThreeNodeRoutingSpreadsAndFiresExactlyOnce) {
  Cluster cluster(3);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  ScenarioResult r = RunScenario(&cluster, &router, /*seed=*/7, 200,
                                 /*kill_after=*/-1, -1, -1, false);
  ASSERT_TRUE(r.completed) << "cluster did not settle";
  EXPECT_EQ(r.acked.size(), 200u);
  cluster.CheckExactlyOnce(r.submitted, r.acked, /*strict=*/true, "basic");

  // The EC-key spread puts work on every member.
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GT(cluster.slot(i).node->stats().tokens_applied, 0u)
        << "node " << i << " never saw a token";
  }
  ClusterRouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.tokens_acked, 200u);
  // Bootstrap joins each bump the epoch; no further repartitions.
  EXPECT_EQ(router.partition_map().epoch, 3u);
}

// --- kill + failover (no rejoin): unacked work re-routes ---------------

TEST(ClusterTest, KillOneNodeFailsOverUnackedWork) {
  Cluster cluster(3);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  ScenarioResult r = RunScenario(&cluster, &router, /*seed=*/11, 150,
                                 /*kill_after=*/60, /*victim=*/1,
                                 /*rejoin_delay=*/-1, false);
  ASSERT_TRUE(r.completed) << "cluster did not settle after failover";
  // Every submitted token is eventually acked: work routed at the dead
  // node re-routes to the survivors.
  EXPECT_EQ(r.acked.size(), 150u);
  ClusterRouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GE(stats.repartitions, 4u);  // 3 joins + the failover
  // Without a rejoin, tokens the dead node acked but had not fired are
  // not recoverable (single-copy WAL; see DESIGN §12) — so here we only
  // assert the no-double-fire half of the contract plus convergence.
  for (const auto& [id, n] : cluster.fired_total()) {
    EXPECT_LE(n, 1) << "token " << id << " fired twice";
    EXPECT_TRUE(r.submitted.count(id)) << "phantom " << id;
  }
  PartitionMap map = router.partition_map();
  for (const std::string& owner : map.owners) {
    EXPECT_NE(owner, "n1") << "dead node still owns a partition";
  }
}

// --- kill + rejoin: WAL replay + fences, partitions reclaimed ----------

TEST(ClusterTest, KillAndRejoinReplaysWalAndReclaimsPartitions) {
  Cluster cluster(3);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  ScenarioResult r = RunScenario(&cluster, &router, /*seed=*/13, 150,
                                 /*kill_after=*/70, /*victim=*/2,
                                 /*rejoin_delay=*/60, false);
  ASSERT_TRUE(r.completed) << "cluster did not settle after rejoin";
  EXPECT_EQ(r.acked.size(), 150u);
  cluster.CheckExactlyOnce(r.submitted, r.acked, /*strict=*/false, "rejoin");

  ClusterRouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.rejoins, 1u);
  // The rejoined node reclaimed partitions.
  PartitionMap map = router.partition_map();
  size_t reclaimed = 0;
  for (const std::string& owner : map.owners) {
    if (owner == "n2") ++reclaimed;
  }
  EXPECT_GT(reclaimed, 0u) << "rejoined node owns nothing";
  EXPECT_EQ(cluster.slot(2).node->epoch(), map.epoch);
}

// --- silent node: heartbeat-miss death, STRICT exactly-once ------------

TEST(ClusterTest, MutedNodeDiesByHeartbeatAndFencesPreventDoubleFire) {
  Cluster cluster(3);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  ScenarioResult r = RunScenario(&cluster, &router, /*seed=*/17, 120,
                                 /*kill_after=*/50, /*victim=*/0,
                                 /*rejoin_delay=*/150, /*mute=*/true);
  ASSERT_TRUE(r.completed) << "cluster did not settle after mute/unmute";
  EXPECT_EQ(r.acked.size(), 120u);
  // A muted node fires nothing while silent, so exactly-once is strict for
  // every token it had accepted but NOT fired: those were re-routed on its
  // death and their staged copies fenced on reconnect. Only tokens it
  // fired BEFORE going silent (ack possibly stuck in its outbox) carry
  // the usual lost-ack <=2 ambiguity.
  cluster.CheckExactlyOnce(r.submitted, r.acked, /*strict=*/false, "mute");

  ClusterRouterStats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.rejoins, 1u);
  std::map<std::string, PeerHealth> peers = router.peers();
  EXPECT_GE(peers.at("n0").total_misses, TestMembership().miss_threshold);
  EXPECT_EQ(peers.at("n0").deaths, 1u);
  uint64_t fenced = cluster.slot(0).node->stats().tokens_fenced;
  EXPECT_GE(fenced, 0u);  // fences applied on reconnect (may be zero if
                          // nothing was in flight at the death verdict)
}

// --- deterministic seed sweep ------------------------------------------

TEST(ClusterTest, SeedSweepKillRejoinNeverLosesOrDuplicates) {
  const int kSeeds = 1000;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Random rng(0x5eed0000 + seed);
    Cluster cluster(3);
    cluster.BootAll();
    ClusterRouterOptions opts;
    opts.config = cluster.config();
    opts.membership = TestMembership();
    ClusterRouter router(opts);
    cluster.RegisterNodes(&router);

    const int tokens = 24;
    int victim = static_cast<int>(rng.Uniform(3));
    int kill_after = 1 + static_cast<int>(rng.Uniform(tokens));
    int rejoin_delay = 20 + static_cast<int>(rng.Uniform(120));
    bool mute = rng.Bernoulli(0.25);

    ScenarioResult r =
        RunScenario(&cluster, &router, 0xc0ffee + seed, tokens, kill_after,
                    victim, rejoin_delay, mute);
    ASSERT_TRUE(r.completed)
        << "seed " << seed << " (victim n" << victim << ", kill@"
        << kill_after << ", rejoin+" << rejoin_delay << ", mute=" << mute
        << ") did not settle in " << r.steps << " steps";
    ASSERT_EQ(r.acked.size(), static_cast<size_t>(tokens)) << "seed " << seed;
    cluster.CheckExactlyOnce(r.submitted, r.acked, /*strict=*/false,
                             "seed " + std::to_string(seed));
    ASSERT_TRUE(cluster.MapsConverged(router)) << "seed " << seed;
    if (testing::Test::HasFailure()) {
      FAIL() << "first failing seed: " << seed;
    }
  }
}

// --- fault injection at every cluster.* site ---------------------------

TEST(ClusterTest, RouterRegistersClusterFaultSites) {
  FaultInjector faults;
  ClusterRouterOptions opts;
  opts.faults = &faults;
  ClusterRouter router(opts);
  std::vector<std::string> sites = faults.RegisteredSites();
  std::set<std::string> have(sites.begin(), sites.end());
  for (const char* site : {"cluster.route", "cluster.connect",
                           "cluster.heartbeat", "cluster.map.send"}) {
    EXPECT_TRUE(have.count(site)) << "site not registered: " << site;
  }
}

TEST(ClusterTest, FaultInjectionAtEveryClusterSiteStillConverges) {
  // Each cluster.* fault site, injected periodically, must only delay
  // progress, never lose or duplicate an acked token. Heartbeat drops can
  // falsely kill a healthy node, whose already-staged tokens may race the
  // fence install — the documented <=2 ambiguity — so the check is
  // non-strict here.
  for (const char* site : {"cluster.route", "cluster.connect",
                           "cluster.heartbeat", "cluster.map.send"}) {
    FaultInjector faults;
    Cluster cluster(3);
    cluster.BootAll();
    ClusterRouterOptions opts;
    opts.config = cluster.config();
    opts.membership = TestMembership();
    opts.faults = &faults;
    ClusterRouter router(opts);
    cluster.RegisterNodes(&router);
    faults.ArmEveryNth(site, 5, StatusCode::kUnavailable);

    ScenarioResult r = RunScenario(&cluster, &router, /*seed=*/23, 60,
                                   /*kill_after=*/25, /*victim=*/1,
                                   /*rejoin_delay=*/80, false);
    uint64_t injected = faults.site_stats(site).faults;
    faults.ClearAll();
    ASSERT_TRUE(r.completed) << site << ": cluster did not settle";
    EXPECT_EQ(r.acked.size(), 60u) << site;
    for (int64_t id : r.acked) {
      auto it = cluster.fired_total().find(id);
      int total = it == cluster.fired_total().end() ? 0 : it->second;
      EXPECT_GE(total, 1) << site << ": acked token " << id << " lost";
      EXPECT_LE(total, 2) << site << ": token " << id << " fired " << total
                          << "x";
    }
    EXPECT_GT(injected, 0u) << site << " was never exercised";
  }
}

// --- the wire-protocol front end ---------------------------------------

TEST(ClusterTest, WireClientSpeaksFramedProtocolThroughRouter) {
  Cluster cluster(2);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  auto pair = CreatePollableLoopbackPair(1 << 18);
  router.AddClientConn(std::move(pair.second));
  FrameConn client(std::move(pair.first));

  HelloFrame hello;
  hello.client_name = "wire-client";
  client.SendPayload(FrameType::kHello, hello);

  DeterministicScheduler sched(31);
  bool done = false;
  uint64_t now_ms = 0;
  enum Phase { kAwaitHello, kStreaming, kAwaitAcks, kAwaitCommand, kDone };
  Phase phase = kAwaitHello;
  const int kTokens = 20;
  int sent = 0;
  uint64_t acked = 0;
  std::string cluster_reply;
  std::string broadcast_reply;
  uint8_t broadcast_status = 0;
  bool saw_cluster_reply = false;
  bool saw_broadcast_reply = false;

  for (size_t i = 0; i < cluster.size(); ++i) {
    sched.AddActor(cluster.slot(i).name, [&cluster, i, &done] {
      cluster.StepNode(i);
      return !done;
    });
  }
  sched.AddActor("router", [&] {
    now_ms += 1;
    router.PumpOnce(now_ms);
    return !done;
  });
  sched.AddActor("wire-client", [&] {
    client.Pump();
    Frame frame;
    while (client.NextFrame(&frame)) {
      switch (frame.type) {
        case FrameType::kHelloReply: {
          auto reply = HelloReplyFrame::Decode(frame.payload);
          EXPECT_TRUE(reply.ok());
          if (!reply.ok()) break;
          EXPECT_EQ(reply->status_code, 0);
          EXPECT_GT(reply->initial_credits, 0u);
          phase = kStreaming;
          break;
        }
        case FrameType::kUpdateAck: {
          auto ack = UpdateAckFrame::Decode(frame.payload);
          EXPECT_TRUE(ack.ok());
          if (!ack.ok()) break;
          EXPECT_EQ(ack->status_code, 0);
          acked = std::max(acked, ack->ack_seq);
          break;
        }
        case FrameType::kCommandReply: {
          auto reply = CommandReplyFrame::Decode(frame.payload);
          EXPECT_TRUE(reply.ok());
          if (!reply.ok()) break;
          if (reply->request_id == 1) {
            cluster_reply = reply->result;
            saw_cluster_reply = true;
          } else if (reply->request_id == 2) {
            broadcast_reply = reply->result;
            broadcast_status = reply->status_code;
            saw_broadcast_reply = true;
          }
          break;
        }
        case FrameType::kCreditGrant:
          break;  // window replenish; the test keeps batches small
        default:
          ADD_FAILURE() << "unexpected frame "
                        << FrameTypeName(frame.type);
      }
    }
    if (phase == kStreaming) {
      if (sent < kTokens) {
        UpdateBatchFrame batch;
        batch.first_seq = static_cast<uint64_t>(sent) + 1;
        for (int k = 0; k < 5 && sent < kTokens; ++k, ++sent) {
          batch.updates.push_back(cluster.Token(5000 + sent));
        }
        client.SendPayload(FrameType::kUpdateBatch, batch);
      } else {
        phase = kAwaitAcks;
      }
    } else if (phase == kAwaitAcks &&
               acked == static_cast<uint64_t>(kTokens)) {
      CommandFrame cmd;
      cmd.request_id = 1;
      cmd.text = "cluster";  // intercepted by the router
      client.SendPayload(FrameType::kCommand, cmd);
      CommandFrame broadcast;
      broadcast.request_id = 2;
      broadcast.text = "enable trigger watch";  // fanned out to all nodes
      client.SendPayload(FrameType::kCommand, broadcast);
      phase = kAwaitCommand;
    } else if (phase == kAwaitCommand && saw_cluster_reply &&
               saw_broadcast_reply && cluster.QueuesDrained()) {
      phase = kDone;
      done = true;
    }
    return !done;
  });

  sched.Run(200000);
  ASSERT_TRUE(done) << "wire scenario did not finish";
  EXPECT_EQ(acked, static_cast<uint64_t>(kTokens));
  // The router's own console stats answer.
  EXPECT_NE(cluster_reply.find("epoch="), std::string::npos) << cluster_reply;
  EXPECT_NE(cluster_reply.find("node n0"), std::string::npos);
  // The broadcast aggregated one reply per member.
  EXPECT_EQ(broadcast_status, 0) << broadcast_reply;
  EXPECT_NE(broadcast_reply.find("[n0]"), std::string::npos);
  EXPECT_NE(broadcast_reply.find("[n1]"), std::string::npos);

  cluster.FinishFirings();
  int fired = 0;
  for (const auto& [id, n] : cluster.fired_total()) {
    EXPECT_EQ(n, 1) << "token " << id;
    ++fired;
  }
  EXPECT_EQ(fired, kTokens);
}

// --- router restart: epoch adoption ------------------------------------

TEST(ClusterTest, RouterRestartAdoptsDurableNodeEpochs) {
  Cluster cluster(3);
  cluster.BootAll();
  ScenarioResult r1;
  uint64_t old_epoch = 0;
  {
    ClusterRouterOptions opts;
    opts.config = cluster.config();
    opts.membership = TestMembership();
    ClusterRouter router(opts);
    cluster.RegisterNodes(&router);
    r1 = RunScenario(&cluster, &router, /*seed=*/41, 60, -1, -1, -1, false);
    ASSERT_TRUE(r1.completed);
    old_epoch = router.partition_map().epoch;
    EXPECT_EQ(old_epoch, 3u);
  }  // the router dies; nothing was persisted

  // Every member durably remembers epoch 3. A replacement router starts
  // at 0 and its first installs are refused; instead of spinning on the
  // refusal forever it must adopt the highest epoch the members report
  // and re-install above it.
  ClusterRouterOptions opts2;
  opts2.config = cluster.config();
  opts2.membership = TestMembership();
  ClusterRouter router2(opts2);
  cluster.RegisterNodes(&router2);
  ScenarioResult r2 = RunScenario(&cluster, &router2, /*seed=*/43, 60, -1, -1,
                                  -1, false, "client2", /*base_id=*/2000);
  ASSERT_TRUE(r2.completed) << "replacement router never converged past the "
                               "members' durable epochs";
  EXPECT_GE(router2.stats().epoch_adoptions, 1u);
  EXPECT_GT(router2.partition_map().epoch, old_epoch);
  ASSERT_TRUE(cluster.MapsConverged(router2));

  std::set<int64_t> submitted = r1.submitted;
  submitted.insert(r2.submitted.begin(), r2.submitted.end());
  std::set<int64_t> acked = r1.acked;
  acked.insert(r2.acked.begin(), r2.acked.end());
  cluster.CheckExactlyOnce(submitted, acked, /*strict=*/true,
                           "router-restart");
}

// --- router restart: persisted fences survive --------------------------

TEST(ClusterTest, RouterRestartRestoresFencesFromPersistedState) {
  // Phase 1: the victim goes MUTE (alive but silent), the router
  // declares it dead, persists the fence, and re-routes its unacked
  // work to the survivors. Then the router itself dies. Phase 2: a
  // replacement router boots from the persisted snapshot and the victim
  // comes back. The victim still holds the re-routed tokens — buffered
  // sends from the dead channel that it stages the moment it wakes up —
  // and ONLY the restored fence stops it from firing second copies.
  // Whether any such token exists is interleaving-dependent, so sweep a
  // few seeds: every one must keep exactly-once, and at least one must
  // show a nonzero fenced count.
  uint64_t fences_exercised = 0;
  for (uint64_t seed : {47u, 101u, 211u, 307u, 401u, 503u}) {
    Cluster cluster(3);
    cluster.BootAll();
    RouterDurableState saved;
    ScenarioResult r1;
    {
      ClusterRouterOptions opts;
      opts.config = cluster.config();
      opts.membership = TestMembership();
      opts.persist_state = [&saved](const RouterDurableState& s) {
        saved = s;
      };
      ClusterRouter router(opts);
      cluster.RegisterNodes(&router);
      r1 = RunScenario(&cluster, &router, seed, 120, /*kill_after=*/50,
                       /*victim=*/1, /*rejoin_delay=*/-1,
                       /*mute_instead=*/true);
      ASSERT_TRUE(r1.completed) << "seed " << seed;
      EXPECT_EQ(router.stats().failovers, 1u) << "seed " << seed;
    }  // router killed AFTER the failover, BEFORE the victim rejoined

    // The fence for the dead node's channel is in the snapshot: it was
    // persisted before any orphan was re-routed to a survivor.
    ASSERT_GT(saved.epoch, 0u) << "seed " << seed;
    ASSERT_EQ(saved.fences.count("router->n1"), 1u) << "seed " << seed;

    ClusterRouterOptions opts2;
    opts2.config = cluster.config();
    opts2.membership = TestMembership();
    opts2.initial_state = saved;
    ClusterRouter router2(opts2);
    cluster.RegisterNodes(&router2);
    cluster.slot(1).muted = false;  // the silent node wakes up
    ScenarioResult r2 =
        RunScenario(&cluster, &router2, seed + 1, 40, -1, -1, -1, false,
                    "client2", /*base_id=*/3000);
    ASSERT_TRUE(r2.completed)
        << "seed " << seed << ": cluster did not settle after restart";
    EXPECT_GE(router2.partition_map().epoch, saved.epoch);
    fences_exercised += cluster.slot(1).node->stats().tokens_fenced;

    std::set<int64_t> submitted = r1.submitted;
    submitted.insert(r2.submitted.begin(), r2.submitted.end());
    std::set<int64_t> acked = r1.acked;
    acked.insert(r2.acked.begin(), r2.acked.end());
    cluster.CheckExactlyOnce(submitted, acked, /*strict=*/false,
                             "fence-restore seed " + std::to_string(seed));
  }
  EXPECT_GT(fences_exercised, 0u)
      << "no seed left re-routed work staged on the victim; the restored "
         "fence was never exercised";
}

// --- node-side lease: self-hold when the router goes mute --------------

TEST(ClusterTest, NodeLeaseSelfHoldsWhenRouterGoesMute) {
  Cluster cluster(2);
  // Mirror the production wiring: lease = heartbeat interval x threshold,
  // the same window after which the router would declare US dead.
  cluster.set_router_lease_ms(TestMembership().heartbeat_interval_ms *
                              TestMembership().miss_threshold);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  uint64_t now_ms = 0;
  auto step_all = [&](bool with_router) {
    ++now_ms;
    if (with_router) router.PumpOnce(now_ms);
    for (size_t i = 0; i < cluster.size(); ++i) cluster.StepNode(i, now_ms);
  };
  for (int i = 0; i < 2000 && !(router.partition_map().epoch >= 2 &&
                                cluster.MapsConverged(router));
       ++i) {
    step_all(true);
  }
  ASSERT_TRUE(cluster.MapsConverged(router)) << "bootstrap never converged";
  for (size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_FALSE(cluster.slot(i).node->processing_held()) << "n" << i;
  }

  // The router partition goes MUTE: no frames, no observable close. Once
  // the lease window passes with no router traffic, every member must
  // stop processing on its own — the router is by now re-routing their
  // partitions to peers, and a member that kept firing would double-fire.
  for (int i = 0; i < 60; ++i) step_all(false);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.slot(i).node->processing_held()) << "n" << i;
    EXPECT_TRUE(cluster.slot(i).tman->processing_paused()) << "n" << i;
    EXPECT_GE(cluster.slot(i).node->stats().lease_holds, 1u) << "n" << i;
  }

  // Router traffic alone renews the lease and releases the self-hold —
  // no new map install needed (the router never declared anyone dead).
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster.slot(i).node->NoteRouterTraffic(now_ms);
    EXPECT_FALSE(cluster.slot(i).node->processing_held()) << "n" << i;
    EXPECT_FALSE(cluster.slot(i).tman->processing_paused()) << "n" << i;
  }
}

// --- retry budget: persistent node error surfaces to the client --------

TEST(ClusterTest, RetryBudgetFailsTokensAndSurfacesErrorToClient) {
  Cluster cluster(2);
  cluster.BootAll();
  ClusterRouterOptions opts;
  opts.config = cluster.config();
  opts.membership = TestMembership();
  ClusterRouter router(opts);
  cluster.RegisterNodes(&router);

  // Converge and warm the channels first, then break n1's WAL for good:
  // every batch it stages now fails with a real error (not Unavailable),
  // so its acks reject. The router must retry each token a bounded
  // number of times, then fail it to the client instead of re-routing
  // the same batch forever.
  ScenarioResult warm =
      RunScenario(&cluster, &router, /*seed=*/59, 10, -1, -1, -1, false);
  ASSERT_TRUE(warm.completed);
  cluster.slot(1).db->disk()->fault_injector()->ArmEveryNth(
      "wal.append", 1, StatusCode::kIoError);

  const int kTokens = 40;
  DeterministicScheduler sched(61);
  bool done = false;
  uint64_t now_ms = 1000;
  int submitted = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    sched.AddActor(cluster.slot(i).name, [&cluster, i, &done] {
      cluster.StepNode(i);
      return !done;
    });
  }
  sched.AddActor("router", [&] {
    now_ms += 1;
    router.PumpOnce(now_ms);
    if (submitted == kTokens &&
        router.AckedSeq("client2") == static_cast<uint64_t>(kTokens) &&
        router.Idle()) {
      done = true;
    }
    return !done;
  });
  sched.AddActor("client", [&] {
    if (submitted < kTokens) {
      router.Submit("client2", cluster.Token(4000 + submitted));
      ++submitted;
    }
    return !done;
  });
  sched.Run(400000);
  ASSERT_TRUE(done) << "acks never completed: a failing token must not "
                       "stall the session forever";

  cluster.slot(1).db->disk()->fault_injector()->ClearAll();
  ClusterRouterStats stats = router.stats();
  EXPECT_GT(stats.tokens_failed, 0u) << "n1 owns partitions; some tokens "
                                        "must have exhausted the budget";
  EXPECT_NE(router.SessionErrorCode("client2"), 0);
  // Tokens owned by the healthy node fired exactly once; failed ones not
  // at all — never twice.
  cluster.FinishFirings();
  for (const auto& [id, n] : cluster.fired_total()) {
    EXPECT_LE(n, 1) << "token " << id;
  }
  EXPECT_GT(stats.tokens_acked, 10u);  // warm phase + n0-owned tokens
}

// --- determinism of the harness itself ---------------------------------

TEST(ClusterTest, SameSeedSameFailoverSchedule) {
  auto run = [](uint64_t seed) {
    Cluster cluster(3);
    cluster.BootAll();
    ClusterRouterOptions opts;
    opts.config = cluster.config();
    opts.membership = TestMembership();
    ClusterRouter router(opts);
    cluster.RegisterNodes(&router);
    ScenarioResult r = RunScenario(&cluster, &router, seed, 80,
                                   /*kill_after=*/30, /*victim=*/1,
                                   /*rejoin_delay=*/50, false);
    ClusterRouterStats s = router.stats();
    return std::tuple<bool, uint64_t, uint64_t, uint64_t, uint64_t>(
        r.completed, r.steps, s.batches_sent, s.repartitions,
        s.misrouted_retries);
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<1>(run(42)), 0u);
}

}  // namespace
}  // namespace tman
