// End-to-end remote ingestion tests: TmanServer + RemoteClient over the
// in-memory loopback transport (deterministic) and real TCP sockets (the
// acceptance workload). Covers command round-trips, event pushes,
// exactly-once ordered delivery across N clients, mid-stream disconnect
// with reconnect + resend, credit backpressure bounding the task-queue
// depth, and malformed-frame handling.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "ipc/loopback.h"
#include "ipc/remote_client.h"
#include "ipc/server.h"
#include "ipc/socket_transport.h"
#include "util/fault_injector.h"

namespace tman {
namespace {

/// Shared setup: a TriggerManager with `num_sources` stream sources
/// (src0, src1, ...), one trigger per source raising Ei(v), and a "*"
/// event consumer recording every delivered value per source.
class ServerTestBase : public ::testing::Test {
 protected:
  void StartManager(uint32_t num_sources, uint32_t drivers,
                    bool start_drivers = true) {
    db_ = std::make_unique<Database>();
    TriggerManagerOptions tmo;
    tmo.persistent_queue = false;  // one task per update descriptor
    tmo.driver_config.num_cpus = drivers == 0 ? 1 : drivers;
    tman_ = std::make_unique<TriggerManager>(db_.get(), tmo);
    ASSERT_TRUE(tman_->Open().ok());
    received_.assign(num_sources, {});
    for (uint32_t i = 0; i < num_sources; ++i) {
      std::string idx = std::to_string(i);
      auto ds = tman_->DefineStreamSource("src" + idx,
                                          Schema({{"v", DataType::kInt}}));
      ASSERT_TRUE(ds.ok()) << ds.status().ToString();
      sources_.push_back(*ds);
      auto r = tman_->ExecuteCommand("create trigger t" + idx + " from src" +
                                     idx + " on insert do raise event E" +
                                     idx + "(v)");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    tman_->events().Register("*", [this](const Event& e) {
      if (e.name.size() < 2 || e.name[0] != 'E') return;
      size_t idx = static_cast<size_t>(std::stoul(e.name.substr(1)));
      std::lock_guard<std::mutex> lock(mutex_);
      if (idx < received_.size()) {
        received_[idx].push_back(e.args[0].as_int());
      }
    });
    if (start_drivers) {
      ASSERT_TRUE(tman_->Start().ok());
    }
  }

  void StartLoopbackServer(TmanServerOptions options = {}) {
    auto listener = std::make_unique<LoopbackListener>();
    listener_ = listener.get();
    server_ = std::make_unique<TmanServer>(tman_.get(), std::move(listener),
                                           options);
    ASSERT_TRUE(server_->Start().ok());
  }

  RemoteClientOptions LoopbackClientOptions(const std::string& name) {
    RemoteClientOptions options;
    options.client_name = name;
    options.connector = [this] { return listener_->Connect(); };
    return options;
  }

  std::vector<int64_t> Received(size_t source_idx) {
    std::lock_guard<std::mutex> lock(mutex_);
    return received_[source_idx];
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (tman_ != nullptr) tman_->Stop();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<TriggerManager> tman_;
  std::vector<DataSourceId> sources_;
  LoopbackListener* listener_ = nullptr;
  std::unique_ptr<TmanServer> server_;
  std::mutex mutex_;
  std::vector<std::vector<int64_t>> received_;
};

using ServerTest = ServerTestBase;

TEST_F(ServerTest, CommandsPingAndErrorsRoundTrip) {
  StartManager(/*num_sources=*/1, /*drivers=*/1);
  StartLoopbackServer();
  RemoteClient client(LoopbackClientOptions("console"));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  auto r = client.Command(
      "create trigger remote_t from src0 when v > 5 do raise event Big(v)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // A failing command comes back as a clean error, not a dropped link.
  auto bad = client.Command("create trigger remote_t from src0 do nonsense");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(client.connected());
  ASSERT_TRUE(client.Ping().ok());

  auto drop = client.Command("drop trigger remote_t");
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  client.Close();
}

TEST_F(ServerTest, EventsArePushedToRemoteConsumers) {
  StartManager(/*num_sources=*/1, /*drivers=*/1);
  StartLoopbackServer();
  // Declared before the clients: the consumer runs on a client reader
  // thread, so on an ASSERT early-return these must outlive the clients'
  // destructors (locals die in reverse order).
  std::mutex mu;
  std::vector<int64_t> seen;
  RemoteClient client(LoopbackClientOptions("watcher"));
  ASSERT_TRUE(client.Connect().ok());

  auto handle = client.RegisterForEvent("E0", [&](const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(e.args[0].as_int());
  });
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  RemoteClient feeder(LoopbackClientOptions("feeder"));
  ASSERT_TRUE(feeder.Connect().ok());
  RemoteDataSource src(&feeder, sources_[0]);
  for (int64_t v = 1; v <= 20; ++v) {
    ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
  }
  Status drained = feeder.Drain();
  ASSERT_TRUE(drained.ok())
      << drained.ToString() << "; credits=" << feeder.credits()
      << " sent=" << feeder.stats().updates_sent
      << " acked=" << feeder.stats().updates_acked
      << " stalls=" << feeder.stats().credit_stalls
      << " reconnects=" << feeder.stats().reconnects
      << "; server granted=" << server_->stats().credits_granted
      << " applied=" << server_->stats().updates_applied
      << " proto_errors=" << server_->stats().protocol_errors;
  tman_->Drain();

  // Pushes ride the server->client stream asynchronously; poll (generous
  // bound: sanitizer builds are slow).
  for (int i = 0; i < 2000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (seen.size() >= 20) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(seen.size(), 20u);
    for (int64_t v = 1; v <= 20; ++v) EXPECT_EQ(seen[v - 1], v);
  }

  ASSERT_TRUE(client.Unregister(*handle).ok());
  feeder.Close();
  client.Close();
  EXPECT_GE(server_->stats().events_pushed, 20u);
}

TEST_F(ServerTest, ExactlyOnceInOrderAcrossConcurrentLoopbackClients) {
  // One driver thread => tokens are processed in task-queue order, so
  // per-source arrival order is trigger-visible order.
  constexpr int kClients = 4;
  constexpr int64_t kUpdates = 500;
  StartManager(/*num_sources=*/kClients, /*drivers=*/1);
  StartLoopbackServer();

  std::vector<std::thread> writers;
  for (int c = 0; c < kClients; ++c) {
    writers.emplace_back([this, c] {
      auto options = LoopbackClientOptions("src-" + std::to_string(c));
      options.batch_max_updates = 32;
      RemoteClient client(options);
      ASSERT_TRUE(client.Connect().ok());
      RemoteDataSource src(&client, sources_[c]);
      for (int64_t v = 1; v <= kUpdates; ++v) {
        ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
      }
      ASSERT_TRUE(client.Drain().ok());
      client.Close();
    });
  }
  for (auto& t : writers) t.join();
  tman_->Drain();

  for (int c = 0; c < kClients; ++c) {
    auto got = Received(c);
    ASSERT_EQ(got.size(), static_cast<size_t>(kUpdates)) << "source " << c;
    for (int64_t v = 1; v <= kUpdates; ++v) {
      ASSERT_EQ(got[v - 1], v) << "source " << c << " position " << v - 1;
    }
  }
  EXPECT_EQ(server_->stats().updates_applied,
            static_cast<uint64_t>(kClients) * kUpdates);
}

TEST_F(ServerTest, MidStreamDisconnectReconnectsAndResendsExactlyOnce) {
  constexpr int64_t kUpdates = 400;
  StartManager(/*num_sources=*/1, /*drivers=*/1);
  StartLoopbackServer();

  FaultInjector faults;
  auto options = LoopbackClientOptions("flaky-feed");
  options.batch_max_updates = 16;
  options.fault_injector = &faults;
  RemoteClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  RemoteDataSource src(&client, sources_[0]);

  for (int64_t v = 1; v <= kUpdates; ++v) {
    if (v == kUpdates / 2) {
      // The next frame write sends half a frame and drops the
      // connection mid-stream: the client must reconnect and resend,
      // and the server's sequence dedup must keep delivery exactly-once.
      // The fault fires once and disarms itself, so the reconnect
      // handshake (which goes through the same fault site) works.
      faults.ArmOnce("ipc.write.drop", 0, StatusCode::kIoError);
    }
    Status s = src.Insert(Tuple({Value::Int(v)}));
    ASSERT_TRUE(s.ok()) << "update " << v << ": " << s.ToString();
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(faults.total_faults(), 1u);
  ASSERT_TRUE(client.Drain().ok());
  tman_->Drain();

  EXPECT_GE(client.stats().reconnects, 1u);
  auto got = Received(0);
  ASSERT_EQ(got.size(), static_cast<size_t>(kUpdates));
  for (int64_t v = 1; v <= kUpdates; ++v) ASSERT_EQ(got[v - 1], v);
  EXPECT_EQ(server_->stats().updates_applied,
            static_cast<uint64_t>(kUpdates));
}

TEST_F(ServerTest, BackpressureBoundsTaskQueueDepth) {
  constexpr uint32_t kCap = 8;
  constexpr int64_t kUpdates = 200;
  // Drivers start *later*: the queue would grow without bound if credits
  // did not stop the writer.
  StartManager(/*num_sources=*/1, /*drivers=*/1, /*start_drivers=*/false);
  TmanServerOptions so;
  so.max_queue_depth = kCap;
  StartLoopbackServer(so);

  auto options = LoopbackClientOptions("pressured");
  options.batch_max_updates = 4;
  options.send_timeout = std::chrono::milliseconds(20000);
  RemoteClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  RemoteDataSource src(&client, sources_[0]);

  std::thread writer([&] {
    for (int64_t v = 1; v <= kUpdates; ++v) {
      ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
    }
  });
  // With no driver consuming, the writer must stall at the credit cap.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LE(tman_->task_queue().size(), kCap);
  EXPECT_LT(client.stats().updates_sent, static_cast<uint64_t>(kUpdates));

  ASSERT_TRUE(tman_->Start().ok());
  writer.join();
  ASSERT_TRUE(client.Drain().ok());
  tman_->Drain();

  EXPECT_LE(tman_->task_queue().stats().max_size, kCap);
  auto got = Received(0);
  ASSERT_EQ(got.size(), static_cast<size_t>(kUpdates));
  EXPECT_GE(client.stats().credit_stalls, 1u);
}

TEST_F(ServerTest, ShedPolicyDropsInsteadOfBlocking) {
  StartManager(/*num_sources=*/1, /*drivers=*/1, /*start_drivers=*/false);
  TmanServerOptions so;
  so.max_queue_depth = 4;
  StartLoopbackServer(so);

  auto options = LoopbackClientOptions("shedder");
  options.batch_max_updates = 4;
  options.backpressure = BackpressurePolicy::kShed;
  RemoteClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  RemoteDataSource src(&client, sources_[0]);

  // Only 4 credits exist and nothing drains; later batches are shed
  // without ever blocking the writer.
  for (int64_t v = 1; v <= 40; ++v) {
    ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  auto stats = client.stats();
  EXPECT_GE(stats.updates_shed, 1u);
  EXPECT_LE(tman_->task_queue().size(), 4u);

  ASSERT_TRUE(tman_->Start().ok());
  tman_->Drain();
  client.Close();
}

TEST_F(ServerTest, MalformedFramesGetCleanErrorsNotCrashes) {
  StartManager(/*num_sources=*/1, /*drivers=*/1);
  StartLoopbackServer();

  {
    // Raw garbage instead of a frame: the server answers with a goodbye
    // (carrying a Status string) and closes; it keeps serving others.
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Write("this is not a TMAN frame at all........").ok());
    auto reply = ReadFrame(t->get(), {});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kGoodbye);
  }
  {
    // Valid header, corrupted payload: CRC mismatch.
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok());
    HelloFrame hello;
    hello.client_name = "x";
    std::string payload;
    hello.Encode(&payload);
    std::string frame;
    EncodeFrame(FrameType::kHello, payload, &frame);
    frame.back() ^= 0x01;
    ASSERT_TRUE((*t)->Write(frame).ok());
    auto reply = ReadFrame(t->get(), {});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::kGoodbye);
  }
  {
    // Protocol frames before hello are rejected.
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok());
    PingFrame ping;
    ping.nonce = 1;
    ASSERT_TRUE(WriteFramePayload(t->get(), FrameType::kPing, ping, {}).ok());
    auto reply = ReadFrame(t->get(), {});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::kGoodbye);
  }
  {
    // Hello with a future protocol version is refused in the reply.
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok());
    HelloFrame hello;
    hello.client_name = "future";
    hello.protocol_version = kWireVersion + 1;
    ASSERT_TRUE(
        WriteFramePayload(t->get(), FrameType::kHello, hello, {}).ok());
    auto reply = ReadFrame(t->get(), {});
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kHelloReply);
    auto decoded = HelloReplyFrame::Decode(reply->payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->status_code,
              static_cast<uint8_t>(StatusCode::kNotSupported));
  }
  {
    // Sending more updates than the granted credit window is credit
    // abuse: the connection is closed with a goodbye.
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok());
    HelloFrame hello;
    hello.client_name = "abuser";
    ASSERT_TRUE(
        WriteFramePayload(t->get(), FrameType::kHello, hello, {}).ok());
    auto reply = ReadFrame(t->get(), {});
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kHelloReply);
    auto decoded = HelloReplyFrame::Decode(reply->payload);
    ASSERT_TRUE(decoded.ok());
    UpdateBatchFrame batch;
    batch.first_seq = 1;
    for (uint32_t i = 0; i <= decoded->initial_credits; ++i) {
      batch.updates.push_back(
          UpdateDescriptor::Insert(sources_[0], Tuple({Value::Int(1)})));
    }
    ASSERT_TRUE(
        WriteFramePayload(t->get(), FrameType::kUpdateBatch, batch, {}).ok());
    while (true) {
      auto frame = ReadFrame(t->get(), {});
      if (!frame.ok()) break;  // closed on us — also acceptable
      if (frame->type == FrameType::kGoodbye) break;
    }
  }

  EXPECT_GE(server_->stats().protocol_errors, 4u);
  // The server survived all of it: a well-formed client still works.
  RemoteClient client(LoopbackClientOptions("healthy"));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
  client.Close();
}

TEST_F(ServerTest, SubmissionErrorsSurfaceInAcks) {
  StartManager(/*num_sources=*/1, /*drivers=*/1);
  StartLoopbackServer();
  RemoteClient client(LoopbackClientOptions("wrong-source"));
  ASSERT_TRUE(client.Connect().ok());
  // An unknown data source is a deterministic rejection: it must come
  // back through Drain, not hang or resend forever.
  ASSERT_TRUE(client
                  .SubmitUpdate(UpdateDescriptor::Insert(
                      9999, Tuple({Value::Int(1)})))
                  .ok());
  Status s = client.Drain();
  EXPECT_FALSE(s.ok());
  // The link stays up; good updates still flow.
  RemoteDataSource src(&client, sources_[0]);
  ASSERT_TRUE(src.Insert(Tuple({Value::Int(5)})).ok());
  ASSERT_TRUE(client.Drain().ok());
  client.Close();
}

// --- kill-and-recover: durable ingestion across a server restart ------------

TEST_F(ServerTest, KillAndRecoverServerDeliversExactlyOnce) {
  constexpr int64_t kFirst = 60;
  constexpr int64_t kTotal = 120;

  // A durable manager with NO drivers: every acked update is logged to
  // the WAL but still unprocessed when the server dies.
  db_ = std::make_unique<Database>();
  TriggerManagerOptions tmo;
  tmo.durable_wal = true;
  tmo.persistent_queue = false;
  tmo.driver_config.num_cpus = 1;
  tman_ = std::make_unique<TriggerManager>(db_.get(), tmo);
  ASSERT_TRUE(tman_->Open().ok());
  auto ds = tman_->DefineStreamSource("src0", Schema({{"v", DataType::kInt}}));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  sources_.push_back(*ds);
  auto r = tman_->ExecuteCommand(
      "create trigger t0 from src0 on insert do raise event E0(v)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  received_.assign(1, {});
  auto register_consumer = [this](TriggerManager* tman) {
    tman->events().Register("E0", [this](const Event& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      received_[0].push_back(e.args[0].as_int());
    });
  };
  StartLoopbackServer();

  // The connector chases listener_ (re-pointed at the recovered server's
  // listener) and reports the restart gap as a clean failure so the
  // client's backoff loop keeps retrying instead of touching a dead
  // listener. Declared before the client: the reader thread uses it.
  std::atomic<bool> server_up{true};
  RemoteClientOptions options;
  options.client_name = "phoenix";
  options.batch_max_updates = 8;
  options.max_reconnect_attempts = 1000;
  options.reconnect_backoff = std::chrono::milliseconds(20);
  options.connector =
      [this, &server_up]() -> Result<std::unique_ptr<Transport>> {
    if (!server_up.load()) return Status::IoError("server restarting");
    return listener_->Connect();
  };
  RemoteClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  RemoteDataSource src(&client, sources_[0]);

  for (int64_t v = 1; v <= kFirst; ++v) {
    ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
  }
  // Drain: every first-half update is acked, and an ack means the WAL
  // committed it — so the kill below deterministically strands exactly
  // kFirst durable-but-unprocessed tokens for recovery to replay.
  ASSERT_TRUE(client.Drain().ok());

  // KILL: stop the server and destroy the manager with everything
  // unprocessed. The Database (disk + buffer pool) survives; the
  // manager's task queue, WAL tail and session map die with it.
  server_up.store(false);
  server_->Stop();
  tman_.reset();

  // RECOVER: a fresh manager replays the WAL, a fresh server seeds the
  // client's session from the recovered high-water mark.
  tman_ = std::make_unique<TriggerManager>(db_.get(), tmo);
  ASSERT_TRUE(tman_->Open().ok());
  EXPECT_GE(tman_->last_recovery().tokens_replayed,
            static_cast<uint64_t>(kFirst));
  register_consumer(tman_.get());
  ASSERT_TRUE(tman_->Start().ok());
  StartLoopbackServer();

  // Before letting the real client back in, prove the dedup state
  // survived the restart at the wire level: a raw connection under the
  // same session name sees the recovered high-water mark in its hello
  // reply, and a full resend of already-applied sequences is filtered
  // to a no-op instead of double-delivering.
  {
    auto t = listener_->Connect();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    HelloFrame hello;
    hello.client_name = "phoenix";
    ASSERT_TRUE(
        WriteFramePayload(t->get(), FrameType::kHello, hello, {}).ok());
    auto frame = ReadFrame(t->get(), {});
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kHelloReply);
    auto reply = HelloReplyFrame::Decode(frame->payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status_code, 0);
    EXPECT_GE(reply->last_applied_seq, static_cast<uint64_t>(kFirst));

    UpdateBatchFrame dup;
    dup.first_seq = 1;  // sequences 1..8: all below the high-water mark
    for (int64_t v = 1; v <= 8; ++v) {
      dup.updates.push_back(
          UpdateDescriptor::Insert(sources_[0], Tuple({Value::Int(v)})));
    }
    ASSERT_TRUE(
        WriteFramePayload(t->get(), FrameType::kUpdateBatch, dup, {}).ok());
    frame = ReadFrame(t->get(), {});
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kUpdateAck);
    auto ack = UpdateAckFrame::Decode(frame->payload);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->status_code, 0);
    // Nothing applied: the mark did not move. The exactly-once scan at
    // the end is the second witness — no duplicates of 1..8.
    EXPECT_GE(ack->ack_seq, static_cast<uint64_t>(kFirst));
  }

  server_up.store(true);

  // The same client continues: reconnect, idempotent resend of anything
  // unacked, then the second half.
  for (int64_t v = kFirst + 1; v <= kTotal; ++v) {
    ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
  }
  Status drained = client.Drain();
  ASSERT_TRUE(drained.ok())
      << drained.ToString() << "; reconnects=" << client.stats().reconnects;
  tman_->Drain();

  EXPECT_GE(client.stats().reconnects, 1u);
  // Exactly once across the restart: acked-but-unprocessed values came
  // back through WAL replay, resent values were deduplicated by the
  // recovered session sequence, and nothing was lost.
  auto got = Received(0);
  ASSERT_EQ(got.size(), static_cast<size_t>(kTotal));
  std::vector<bool> seen(kTotal + 1, false);
  for (int64_t v : got) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, kTotal);
    ASSERT_FALSE(seen[static_cast<size_t>(v)]) << "duplicate value " << v;
    seen[static_cast<size_t>(v)] = true;
  }
  // The durable session advanced through both halves under its wire name.
  EXPECT_GE(tman_->RecoveredSessionSeq("phoenix"),
            static_cast<uint64_t>(kFirst));
  client.Close();
}

// --- the acceptance workload over real sockets ------------------------------

TEST_F(ServerTest, SocketEightClientsTimesTenThousandExactlyOnce) {
  constexpr int kClients = 8;
  constexpr int64_t kUpdates = 10000;
  constexpr uint32_t kCap = 4096;
  StartManager(/*num_sources=*/kClients, /*drivers=*/2);

  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  uint16_t port = (*listener)->port();
  TmanServerOptions so;
  so.max_queue_depth = kCap;
  server_ = std::make_unique<TmanServer>(tman_.get(), std::move(*listener),
                                         so);
  ASSERT_TRUE(server_->Start().ok());

  std::vector<std::thread> writers;
  for (int c = 0; c < kClients; ++c) {
    writers.emplace_back([this, c, port] {
      RemoteClientOptions options;
      options.client_name = "sock-src-" + std::to_string(c);
      options.batch_max_updates = 256;
      options.connector = [port] { return TcpConnect("127.0.0.1", port); };
      RemoteClient client(options);
      ASSERT_TRUE(client.Connect().ok());
      RemoteDataSource src(&client, sources_[c]);
      for (int64_t v = 0; v < kUpdates; ++v) {
        ASSERT_TRUE(src.Insert(Tuple({Value::Int(v)})).ok());
      }
      ASSERT_TRUE(client.Drain().ok());
      client.Close();
    });
  }
  for (auto& t : writers) t.join();
  tman_->Drain();

  // Exactly once per source: every value seen, no duplicates. (With two
  // driver threads inter-batch order is not deterministic, so this test
  // checks the exactly-once set; the loopback test checks order.)
  for (int c = 0; c < kClients; ++c) {
    auto got = Received(c);
    ASSERT_EQ(got.size(), static_cast<size_t>(kUpdates)) << "source " << c;
    std::vector<bool> seen(kUpdates, false);
    for (int64_t v : got) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kUpdates);
      ASSERT_FALSE(seen[static_cast<size_t>(v)])
          << "duplicate value " << v << " for source " << c;
      seen[static_cast<size_t>(v)] = true;
    }
  }
  EXPECT_EQ(server_->stats().updates_applied,
            static_cast<uint64_t>(kClients) * kUpdates);
  // Backpressure held the line: the queue's high-water mark respects the
  // configured bound.
  EXPECT_LE(tman_->task_queue().stats().max_size, kCap);
}

}  // namespace
}  // namespace tman
