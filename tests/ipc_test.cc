// Wire protocol tests: round-trips for every frame type, the frame
// header validator, the adversarial decoder suite (truncation, oversize,
// CRC damage, version skew, random bytes — every outcome must be a clean
// Status, never a crash or over-read), and frame I/O over the loopback
// transport including the ipc.* fault sites.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ipc/loopback.h"
#include "ipc/remote_client.h"
#include "util/backoff.h"
#include "ipc/socket_transport.h"
#include "ipc/transport.h"
#include "ipc/wire_format.h"
#include "util/crc32.h"
#include "util/random.h"

namespace tman {
namespace {

// --- CRC-32 ----------------------------------------------------------------

TEST(Crc32Test, KnownAnswers) {
  // The standard check value for CRC-32 (zlib polynomial).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32(data.data(), data.size());
  uint32_t part = Crc32(data.data(), 10);
  part = Crc32(data.data() + 10, data.size() - 10, part);
  EXPECT_EQ(part, whole);
}

// --- frame header ----------------------------------------------------------

TEST(WireFormatTest, FrameHeaderRoundTrip) {
  std::string frame;
  EncodeFrame(FrameType::kCommand, "hello world", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 11);
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderSize), kDefaultMaxPayload);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, FrameType::kCommand);
  EXPECT_EQ(header->payload_len, 11u);
  EXPECT_TRUE(
      VerifyFramePayload(*header, std::string_view(frame).substr(
                                      kFrameHeaderSize))
          .ok());
}

TEST(WireFormatTest, HeaderRejectsBadMagic) {
  std::string frame;
  EncodeFrame(FrameType::kPing, "", &frame);
  frame[0] = 'X';
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderSize), kDefaultMaxPayload);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kCorruption);
}

TEST(WireFormatTest, HeaderRejectsBadVersion) {
  std::string frame;
  EncodeFrame(FrameType::kPing, "", &frame);
  frame[4] = static_cast<char>(kWireVersion + 1);
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderSize), kDefaultMaxPayload);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kNotSupported);
}

TEST(WireFormatTest, HeaderRejectsUnknownType) {
  std::string frame;
  EncodeFrame(FrameType::kPing, "", &frame);
  frame[5] = static_cast<char>(200);
  EXPECT_FALSE(DecodeFrameHeader(
                   std::string_view(frame).substr(0, kFrameHeaderSize),
                   kDefaultMaxPayload)
                   .ok());
}

TEST(WireFormatTest, HeaderRejectsNonzeroReserved) {
  std::string frame;
  EncodeFrame(FrameType::kPing, "", &frame);
  frame[6] = 1;
  EXPECT_FALSE(DecodeFrameHeader(
                   std::string_view(frame).substr(0, kFrameHeaderSize),
                   kDefaultMaxPayload)
                   .ok());
}

TEST(WireFormatTest, HeaderRejectsOversizedPayloadBeforeAllocation) {
  // Announce a 4 GB payload: the header decoder must reject it from the
  // length field alone.
  std::string frame;
  EncodeFrame(FrameType::kPing, "x", &frame);
  frame[8] = static_cast<char>(0xFF);
  frame[9] = static_cast<char>(0xFF);
  frame[10] = static_cast<char>(0xFF);
  frame[11] = static_cast<char>(0xFF);
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderSize), 1 << 20);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kResourceExhausted);
}

TEST(WireFormatTest, VerifyDetectsCorruptPayload) {
  std::string frame;
  EncodeFrame(FrameType::kCommand, "payload bytes", &frame);
  auto header = DecodeFrameHeader(
      std::string_view(frame).substr(0, kFrameHeaderSize), kDefaultMaxPayload);
  ASSERT_TRUE(header.ok());
  std::string payload(frame.substr(kFrameHeaderSize));
  payload[3] ^= 0x40;
  Status s = VerifyFramePayload(*header, payload);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

// --- payload round-trips ----------------------------------------------------

UpdateDescriptor SampleInsert(uint32_t source, int64_t v) {
  return UpdateDescriptor::Insert(source,
                                  Tuple({Value::Int(v), Value::String("s")}));
}

TEST(WireFormatTest, HelloRoundTrip) {
  HelloFrame in;
  in.client_name = "feed-7";
  in.protocol_version = kWireVersion;
  std::string payload;
  in.Encode(&payload);
  auto out = HelloFrame::Decode(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->client_name, "feed-7");
  EXPECT_EQ(out->protocol_version, kWireVersion);
}

TEST(WireFormatTest, HelloReplyRoundTrip) {
  HelloReplyFrame in;
  in.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  in.message = "nope";
  in.initial_credits = 512;
  in.last_applied_seq = 99887766554433ULL;
  std::string payload;
  in.Encode(&payload);
  auto out = HelloReplyFrame::Decode(payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status_code, in.status_code);
  EXPECT_EQ(out->message, "nope");
  EXPECT_EQ(out->initial_credits, 512u);
  EXPECT_EQ(out->last_applied_seq, 99887766554433ULL);
}

TEST(WireFormatTest, CommandRoundTrip) {
  CommandFrame in;
  in.request_id = 42;
  in.text = "create trigger t from emp on insert do raise event E()";
  std::string payload;
  in.Encode(&payload);
  auto out = CommandFrame::Decode(payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->request_id, 42u);
  EXPECT_EQ(out->text, in.text);
}

TEST(WireFormatTest, CommandReplyRoundTrip) {
  CommandReplyFrame in;
  in.request_id = 7;
  in.status_code = static_cast<uint8_t>(StatusCode::kParseError);
  in.message = "bad syntax";
  in.result = "";
  std::string payload;
  in.Encode(&payload);
  auto out = CommandReplyFrame::Decode(payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->request_id, 7u);
  EXPECT_EQ(out->status_code, in.status_code);
  EXPECT_EQ(out->message, "bad syntax");
  EXPECT_EQ(out->result, "");
}

TEST(WireFormatTest, UpdateBatchRoundTrip) {
  UpdateBatchFrame in;
  in.first_seq = 1000;
  in.updates.push_back(SampleInsert(3, 1));
  in.updates.push_back(UpdateDescriptor::Delete(
      4, Tuple({Value::Int(2), Value::String("x")})));
  in.updates.push_back(UpdateDescriptor::Update(
      5, Tuple({Value::Int(3), Value::String("a")}),
      Tuple({Value::Int(4), Value::String("b")})));
  std::string payload;
  in.Encode(&payload);
  auto out = UpdateBatchFrame::Decode(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->first_seq, 1000u);
  ASSERT_EQ(out->updates.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out->updates[i].ToString(), in.updates[i].ToString()) << i;
  }
}

TEST(WireFormatTest, UpdateAckRoundTrip) {
  UpdateAckFrame in;
  in.ack_seq = 12345;
  in.status_code = static_cast<uint8_t>(StatusCode::kNotFound);
  in.message = "unknown data source";
  in.credits = 64;
  std::string payload;
  in.Encode(&payload);
  auto out = UpdateAckFrame::Decode(payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->ack_seq, 12345u);
  EXPECT_EQ(out->status_code, in.status_code);
  EXPECT_EQ(out->message, "unknown data source");
  EXPECT_EQ(out->credits, 64u);
}

TEST(WireFormatTest, EventFramesRoundTrip) {
  EventRegisterFrame reg;
  reg.request_id = 9;
  reg.event_name = "*";
  std::string payload;
  reg.Encode(&payload);
  auto reg_out = EventRegisterFrame::Decode(payload);
  ASSERT_TRUE(reg_out.ok());
  EXPECT_EQ(reg_out->request_id, 9u);
  EXPECT_EQ(reg_out->event_name, "*");

  EventUnregisterFrame unreg;
  unreg.registration_id = 77;
  payload.clear();
  unreg.Encode(&payload);
  auto unreg_out = EventUnregisterFrame::Decode(payload);
  ASSERT_TRUE(unreg_out.ok());
  EXPECT_EQ(unreg_out->registration_id, 77u);

  EventPushFrame push;
  push.registration_id = 5;
  push.event_name = "Hired";
  push.args = {Value::String("ann"), Value::Int(3), Value::Float(1.5)};
  payload.clear();
  push.Encode(&payload);
  auto push_out = EventPushFrame::Decode(payload);
  ASSERT_TRUE(push_out.ok()) << push_out.status().ToString();
  EXPECT_EQ(push_out->registration_id, 5u);
  EXPECT_EQ(push_out->event_name, "Hired");
  ASSERT_EQ(push_out->args.size(), 3u);
  EXPECT_EQ(push_out->args[0].as_string(), "ann");
  EXPECT_EQ(push_out->args[1].as_int(), 3);
}

TEST(WireFormatTest, SmallFramesRoundTrip) {
  CreditGrantFrame grant;
  grant.credits = 4096;
  std::string payload;
  grant.Encode(&payload);
  auto grant_out = CreditGrantFrame::Decode(payload);
  ASSERT_TRUE(grant_out.ok());
  EXPECT_EQ(grant_out->credits, 4096u);

  PingFrame ping;
  ping.nonce = 0xDEADBEEFCAFEF00DULL;
  payload.clear();
  ping.Encode(&payload);
  auto ping_out = PingFrame::Decode(payload);
  ASSERT_TRUE(ping_out.ok());
  EXPECT_EQ(ping_out->nonce, ping.nonce);

  GoodbyeFrame bye;
  bye.reason = "done";
  payload.clear();
  bye.Encode(&payload);
  auto bye_out = GoodbyeFrame::Decode(payload);
  ASSERT_TRUE(bye_out.ok());
  EXPECT_EQ(bye_out->reason, "done");
}

// --- adversarial decoding ---------------------------------------------------

// Every strict decoder must reject every proper prefix of a valid payload
// and any payload with trailing bytes — cleanly, without reading out of
// bounds (ASan-checked).
template <typename Payload>
void CheckTruncationAndTrailing(const Payload& sample) {
  std::string payload;
  sample.Encode(&payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto out = Payload::Decode(std::string_view(payload.data(), len));
    EXPECT_FALSE(out.ok()) << "prefix of length " << len << " accepted";
  }
  std::string trailing = payload + "\x01";
  EXPECT_FALSE(Payload::Decode(trailing).ok()) << "trailing byte accepted";
}

TEST(WireFormatAdversarialTest, TruncatedAndTrailingPayloads) {
  {
    HelloFrame f;
    f.client_name = "abc";
    CheckTruncationAndTrailing(f);
  }
  {
    HelloReplyFrame f;
    f.message = "m";
    f.initial_credits = 1;
    CheckTruncationAndTrailing(f);
  }
  {
    CommandFrame f;
    f.request_id = 1;
    f.text = "stats";
    CheckTruncationAndTrailing(f);
  }
  {
    CommandReplyFrame f;
    f.request_id = 1;
    f.result = "ok";
    CheckTruncationAndTrailing(f);
  }
  {
    UpdateBatchFrame f;
    f.first_seq = 1;
    f.updates.push_back(SampleInsert(1, 7));
    CheckTruncationAndTrailing(f);
  }
  {
    UpdateAckFrame f;
    f.ack_seq = 1;
    f.message = "e";
    CheckTruncationAndTrailing(f);
  }
  {
    EventRegisterFrame f;
    f.event_name = "E";
    CheckTruncationAndTrailing(f);
  }
  {
    EventUnregisterFrame f;
    CheckTruncationAndTrailing(f);
  }
  {
    EventPushFrame f;
    f.event_name = "E";
    f.args = {Value::Int(1)};
    CheckTruncationAndTrailing(f);
  }
  {
    CreditGrantFrame f;
    CheckTruncationAndTrailing(f);
  }
  {
    PingFrame f;
    CheckTruncationAndTrailing(f);
  }
  {
    GoodbyeFrame f;
    f.reason = "r";
    CheckTruncationAndTrailing(f);
  }
}

TEST(WireFormatAdversarialTest, RandomBytesNeverCrashDecoders) {
  Random rng(20260806);
  for (int round = 0; round < 2000; ++round) {
    size_t len = rng.Uniform(64);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    // Each decoder must return a Status (ok or not) without crashing.
    (void)HelloFrame::Decode(bytes);
    (void)HelloReplyFrame::Decode(bytes);
    (void)CommandFrame::Decode(bytes);
    (void)CommandReplyFrame::Decode(bytes);
    (void)UpdateBatchFrame::Decode(bytes);
    (void)UpdateAckFrame::Decode(bytes);
    (void)EventRegisterFrame::Decode(bytes);
    (void)EventUnregisterFrame::Decode(bytes);
    (void)EventPushFrame::Decode(bytes);
    (void)CreditGrantFrame::Decode(bytes);
    (void)PingFrame::Decode(bytes);
    (void)GoodbyeFrame::Decode(bytes);
    if (len >= kFrameHeaderSize) {
      (void)DecodeFrameHeader(
          std::string_view(bytes).substr(0, kFrameHeaderSize), 1 << 16);
    }
  }
}

TEST(WireFormatAdversarialTest, MutatedValidFramesNeverCrash) {
  // Start from a valid encoded batch frame and flip bytes: the reader
  // pipeline (header check, CRC, payload decode) must always produce a
  // clean Status.
  UpdateBatchFrame batch;
  batch.first_seq = 5;
  for (int i = 0; i < 4; ++i) batch.updates.push_back(SampleInsert(2, i));
  std::string payload;
  batch.Encode(&payload);
  std::string frame;
  EncodeFrame(FrameType::kUpdateBatch, payload, &frame);

  Random rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = frame;
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1u << rng.Uniform(8));
    }
    auto header = DecodeFrameHeader(
        std::string_view(mutated).substr(0, kFrameHeaderSize),
        kDefaultMaxPayload);
    if (!header.ok()) continue;
    std::string_view body = std::string_view(mutated).substr(kFrameHeaderSize);
    if (body.size() != header->payload_len) continue;
    if (!VerifyFramePayload(*header, body).ok()) continue;
    (void)UpdateBatchFrame::Decode(body);
  }
}

// --- frame I/O over loopback ------------------------------------------------

TEST(FrameIoTest, WriteReadAcrossLoopback) {
  auto [client, server] = CreateLoopbackPair();
  CommandFrame cmd;
  cmd.request_id = 3;
  cmd.text = "stats";
  ASSERT_TRUE(
      WriteFramePayload(client.get(), FrameType::kCommand, cmd, {}).ok());
  auto frame = ReadFrame(server.get(), {});
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kCommand);
  auto decoded = CommandFrame::Decode(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->text, "stats");
}

TEST(FrameIoTest, ReassemblesShortReads) {
  auto [client, server] = CreateLoopbackPair();
  FaultInjector faults;
  // Clamp every transport read to one byte: the reader must reassemble.
  faults.ArmEveryNth("ipc.read.short", 1, StatusCode::kIoError);
  FrameIoOptions read_io;
  read_io.faults = &faults;

  CommandFrame cmd;
  cmd.request_id = 1;
  cmd.text = "a somewhat longer command text to fragment";
  ASSERT_TRUE(
      WriteFramePayload(client.get(), FrameType::kCommand, cmd, {}).ok());
  auto frame = ReadFrame(server.get(), read_io);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto decoded = CommandFrame::Decode(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->text, cmd.text);
}

TEST(FrameIoTest, CorruptFaultIsDetectedByReader) {
  auto [client, server] = CreateLoopbackPair();
  FaultInjector faults;
  faults.ArmEveryNth("ipc.corrupt", 1, StatusCode::kCorruption);
  FrameIoOptions write_io;
  write_io.faults = &faults;

  CommandFrame cmd;
  cmd.request_id = 1;
  cmd.text = "stats";
  ASSERT_TRUE(
      WriteFramePayload(client.get(), FrameType::kCommand, cmd, write_io)
          .ok());
  auto frame = ReadFrame(server.get(), {});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameIoTest, DroppedWriteLeavesTruncatedFrame) {
  auto [client, server] = CreateLoopbackPair();
  FaultInjector faults;
  faults.ArmCountdown("ipc.write.drop", 0, StatusCode::kIoError);
  FrameIoOptions write_io;
  write_io.faults = &faults;

  CommandFrame cmd;
  cmd.request_id = 1;
  cmd.text = "this frame is cut in half mid-flight";
  Status s = WriteFramePayload(client.get(), FrameType::kCommand, cmd,
                               write_io);
  EXPECT_FALSE(s.ok());
  // The reader sees a partial frame then EOF: corruption, not clean EOF.
  auto frame = ReadFrame(server.get(), {});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(FrameIoTest, CleanCloseIsAbortedAtFrameBoundary) {
  auto [client, server] = CreateLoopbackPair();
  client->Close();
  auto frame = ReadFrame(server.get(), {});
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(FrameIoTest, OversizedFrameRejectedWithoutReadingPayload) {
  auto [client, server] = CreateLoopbackPair();
  std::string big(1024, 'x');
  std::string frame;
  EncodeFrame(FrameType::kCommand, big, &frame);
  ASSERT_TRUE(client->Write(frame).ok());
  FrameIoOptions small_io;
  small_io.max_payload = 128;
  auto got = ReadFrame(server.get(), small_io);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
}

// --- host:port parsing -------------------------------------------------------

TEST(ParseHostPortTest, Forms) {
  auto hp = ParseHostPort("127.0.0.1:7447");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 7447);

  hp = ParseHostPort(":9");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 9);

  hp = ParseHostPort("[::1]:80");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->first, "::1");
  EXPECT_EQ(hp->second, 80);

  EXPECT_FALSE(ParseHostPort("nohost").ok());
  EXPECT_FALSE(ParseHostPort("h:notaport").ok());
  EXPECT_FALSE(ParseHostPort("h:70000").ok());
}

// --- loopback transport semantics -------------------------------------------

TEST(LoopbackTest, BoundedBufferBlocksWriterUntilReaderDrains) {
  auto [client, server] = CreateLoopbackPair(/*capacity=*/64);
  std::string chunk(48, 'a');
  ASSERT_TRUE(client->Write(chunk).ok());
  // Second write exceeds capacity; it must block until the reader drains.
  std::thread writer([&] { ASSERT_TRUE(client->Write(chunk).ok()); });
  char buf[256];
  size_t total = 0;
  while (total < 96) {
    auto n = server->ReadSome(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    total += *n;
  }
  writer.join();
  EXPECT_EQ(total, 96u);
}

TEST(LoopbackTest, CloseUnblocksBlockedReader) {
  auto [client, server] = CreateLoopbackPair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client->Close();
  });
  char buf[16];
  auto n = server->ReadSome(buf, sizeof buf);
  closer.join();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // EOF
}

TEST(LoopbackTest, PeerSeesEofOnlyAfterOurInboundIsClosed) {
  // A peer that reacts to our EOF (the server's goodbye after a frame cut
  // in half) must not reach our reader: when the peer sees EOF, its
  // writes to us already fail.
  for (int round = 0; round < 200; ++round) {
    auto [client, server] = CreateLoopbackPair();
    std::thread closer([&client] { client->Close(); });
    char buf[16];
    auto n = server->ReadSome(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 0u);  // EOF
    EXPECT_FALSE(server->Write("goodbye").ok()) << "round " << round;
    closer.join();
  }
}

// --- reconnect backoff --------------------------------------------------

TEST(BackoffTest, ExponentialGrowthClampedAtCap) {
  using std::chrono::milliseconds;
  // jitter 0 => pure deterministic schedule: 10, 20, 40, 80, 100, 100, ...
  int64_t expected[] = {10, 20, 40, 80, 100, 100};
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    milliseconds d = BackoffDelay(attempt, milliseconds(10), milliseconds(100),
                                  2.0, 0.0, nullptr);
    EXPECT_EQ(d.count(), expected[attempt - 1]) << "attempt " << attempt;
  }
  // attempt 0 is coerced to 1.
  EXPECT_EQ(BackoffDelay(0, milliseconds(10), milliseconds(100), 2.0, 0.0,
                         nullptr)
                .count(),
            10);
}

TEST(BackoffTest, JitterStaysWithinBoundsAndIsSeedDeterministic) {
  using std::chrono::milliseconds;
  const double kJitter = 0.5;
  Random rng_a(4242), rng_b(4242);
  bool any_jittered = false;
  for (uint32_t attempt = 1; attempt <= 10; ++attempt) {
    milliseconds base = BackoffDelay(attempt, milliseconds(16),
                                     milliseconds(512), 2.0, 0.0, nullptr);
    milliseconds a = BackoffDelay(attempt, milliseconds(16), milliseconds(512),
                                  2.0, kJitter, &rng_a);
    milliseconds b = BackoffDelay(attempt, milliseconds(16), milliseconds(512),
                                  2.0, kJitter, &rng_b);
    EXPECT_EQ(a.count(), b.count()) << "same seed, same schedule";
    double lo = base.count() * (1.0 - kJitter);
    double hi = std::min(512.0, base.count() * (1.0 + kJitter));
    EXPECT_GE(a.count(), static_cast<int64_t>(lo) - 1) << "attempt " << attempt;
    EXPECT_LE(a.count(), static_cast<int64_t>(hi) + 1) << "attempt " << attempt;
    if (a != base) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

// The RemoteClient reconnect path follows the configured backoff schedule
// exactly, asserted against a virtual clock (the reconnect_sleep seam
// records delays instead of sleeping).
TEST(BackoffTest, RemoteClientReconnectFollowsBackoffSchedule) {
  auto [client_end, server_end] = CreateLoopbackPair();

  // Service the initial handshake by hand, then drop the connection.
  std::thread server([transport = std::move(server_end)]() mutable {
    auto hello = ReadFrame(transport.get());
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->type, FrameType::kHello);
    HelloReplyFrame reply;
    reply.initial_credits = 16;
    ASSERT_TRUE(
        WriteFramePayload(transport.get(), FrameType::kHelloReply, reply)
            .ok());
    transport->Close();
  });

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int64_t> delays;

  RemoteClientOptions options;
  options.client_name = "backoff-probe";
  options.auto_reconnect = true;
  options.max_reconnect_attempts = 6;
  options.reconnect_backoff = std::chrono::milliseconds(10);
  options.reconnect_backoff_max = std::chrono::milliseconds(80);
  options.reconnect_backoff_multiplier = 2.0;
  options.reconnect_jitter = 0.25;
  options.reconnect_seed = 1234;
  options.reconnect_sleep = [&](std::chrono::milliseconds d) {
    std::lock_guard<std::mutex> lock(mutex);
    delays.push_back(d.count());
    cv.notify_all();
  };
  options.connector = []() -> Result<std::unique_ptr<Transport>> {
    return Status::Unavailable("endpoint down");
  };

  RemoteClient client(options);
  ASSERT_TRUE(client.Connect(std::move(client_end)).ok());
  server.join();

  {
    // The server hangup triggers reconnects; every dial fails, so exactly
    // max_reconnect_attempts sleeps are recorded, then the client goes
    // terminal.
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return delays.size() >= 6; }));
    EXPECT_EQ(delays.size(), 6u);
  }
  client.Close();

  // Replay the exact schedule: same seed, same jittered delays.
  Random replay_rng(1234);
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    std::chrono::milliseconds expected = BackoffDelay(
        attempt, options.reconnect_backoff, options.reconnect_backoff_max,
        options.reconnect_backoff_multiplier, options.reconnect_jitter,
        &replay_rng);
    EXPECT_EQ(delays[attempt - 1], expected.count()) << "attempt " << attempt;
    EXPECT_LE(delays[attempt - 1], 80 + 80 / 4) << "cap + jitter ceiling";
  }
}

}  // namespace
}  // namespace tman
