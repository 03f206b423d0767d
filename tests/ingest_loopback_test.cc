// End-to-end tests of the TCP ingest path over real loopback sockets:
//
//  1. Equivalence: a YSB query (one stream) and an LRB query (three
//     streams, merged by NetworkFeed under an ingest byte budget that cuts
//     polls mid-merge) fed over loadgen -> IngestServer -> NetworkFeed
//     produce byte-identical results (count, order-sensitive hash,
//     latencies) to the same query fed by the in-process SyntheticFeed —
//     the wire protocol and gateway are transparent.
//  2. Backpressure: a blasting client against an undrained gateway keeps
//     the staging queue bounded by the stream's byte budget; nothing is
//     lost once the consumer drains.
//  3. Fragmentation: one byte stream delivered whole and split at random
//     points stages the same elements with the same cursors, metrics and
//     stall count — the decode path is independent of read boundaries.
//  4. Robustness: malformed frames, unknown streams, protocol violations,
//     abrupt disconnects and idle peers close the offending connection
//     (with an error frame where possible) without disturbing the server;
//     a connection the server itself paused is not idle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/runtime/engine.h"
#include "src/workloads/lrb.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

constexpr uint64_t kSeed = 42;
constexpr TimeMicros kDuration = SecondsToMicros(5);

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.num_cores = 4;
  return config;
}

YsbConfig TestYsbConfig() {
  YsbConfig wc;
  wc.events_per_second = 2000.0;
  return wc;
}

struct SinkSnapshot {
  int64_t results = 0;
  uint64_t hash = 0;
  TimeMicros last_result_time = kNoTime;
  int64_t swm_count = 0;
  double swm_mean = 0.0;
};

/// Pops `stream`'s staged elements, in order, through the feed's run path
/// (IngestGateway::PopRun, which keeps the replay cursor). The first
/// element is always taken, so a `max_bytes` of 1 pops exactly one.
std::vector<Event> PopStaged(
    IngestGateway& gateway, uint32_t stream,
    int64_t max_bytes = std::numeric_limits<int64_t>::max()) {
  std::vector<EventFeed::FeedElement> run;
  int64_t delivered = 0;
  gateway.PopRun(gateway.Resolve(stream),
                 std::numeric_limits<TimeMicros>::max(), max_bytes,
                 &delivered, /*source_index=*/0, &run);
  std::vector<Event> events;
  for (const EventFeed::FeedElement& fe : run) events.push_back(fe.event);
  return events;
}

SinkSnapshot Snapshot(const Query& query) {
  const SinkOperator& sink = query.sink();
  return {sink.results_received(), sink.results_hash(),
          sink.last_result_time(), sink.swm_latency().count(),
          sink.swm_latency().mean()};
}

/// The reference run: engine + SyntheticFeed entirely in-process.
SinkSnapshot RunInProcess() {
  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  const QueryId id = engine.AddQuery(
      MakeYsbQuery(0, TestYsbConfig()),
      MakeYsbFeed(TestYsbConfig(), std::make_unique<ConstantDelay>(0), kSeed,
                  /*start_time=*/0),
      /*deploy_time=*/0);
  engine.RunUntil(kDuration);
  return Snapshot(engine.query(id));
}

TEST(IngestLoopbackTest, TcpIngestMatchesInProcessResults) {
  const SinkSnapshot expected = RunInProcess();
  ASSERT_GT(expected.results, 0);
  ASSERT_GT(expected.swm_count, 0);

  // Networked run: same engine, same query, but the feed arrives over a
  // real TCP socket from a blasting client thread.
  Engine engine(TestEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  const uint32_t stream_id = MakeStreamId(0, 0);
  gateway.RegisterStream(stream_id, IngestStreamConfig{});
  auto feed = std::make_unique<NetworkFeed>(&gateway,
                                            std::vector<uint32_t>{stream_id});
  NetworkFeed* feed_ptr = feed.get();
  const QueryId id = engine.AddQuery(MakeYsbQuery(0, TestYsbConfig()),
                                     std::move(feed), /*deploy_time=*/0);

  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::thread client([port]() {
    // The identical feed the reference run consumed, replayed unpaced;
    // TCP flow control and the gateway byte budget pace it for us.
    auto replay_feed = MakeYsbFeed(TestYsbConfig(),
                                   std::make_unique<ConstantDelay>(0), kSeed,
                                   /*start_time=*/0);
    LoadgenConnection conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", port, MakeStreamId(0, 0)).ok());
    ReplayOptions opts;
    opts.until = kDuration;
    opts.speed = 0.0;  // blast
    ASSERT_TRUE(ReplayFeed(*replay_feed, {&conn}, opts).ok());
  });

  // Lockstep drive: run a cycle only once every element due by its end has
  // been staged (the client sends in ingestion order, so StagedThrough is
  // an arrival watermark; kBye lifts it to infinity).
  const DurationMicros cycle = engine.config().cycle_length;
  while (engine.now() < kDuration) {
    const TimeMicros safe = feed_ptr->SafeThrough();
    if (safe >= kDuration) {
      // Everything through the end of the run has arrived (kBye lifts the
      // watermark to infinity): finish exactly like the reference run.
      engine.RunUntil(kDuration);
    } else if (engine.now() + cycle <= safe) {
      engine.RunUntil(engine.now() + cycle);
    } else {
      server.PollOnce(/*timeout_ms=*/10);
    }
  }
  client.join();
  server.Stop();

  const SinkSnapshot got = Snapshot(engine.query(id));
  EXPECT_EQ(got.results, expected.results);
  EXPECT_EQ(got.hash, expected.hash);
  EXPECT_EQ(got.last_result_time, expected.last_result_time);
  EXPECT_EQ(got.swm_count, expected.swm_count);
  EXPECT_DOUBLE_EQ(got.swm_mean, expected.swm_mean);

  // The wire made the trip: every data event the feed generated was
  // decoded from TCP frames, none synthesized locally.
  EXPECT_EQ(gateway.data_events(stream_id), feed_ptr->generated_events());
  EXPECT_GT(gateway.metrics().bytes_read(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 0);
}

/// Small enough that the engine's remaining buffer space cuts LRB polls
/// (about 35 KB of arrivals per 120 ms cycle) while join and window state
/// is held, yet large enough that every window still fires.
constexpr int64_t kLrbMemoryBytes = 80 << 10;

EngineConfig LrbEngineConfig() {
  EngineConfig config = TestEngineConfig();
  config.memory_capacity_bytes = kLrbMemoryBytes;
  return config;
}

/// Counts NetworkFeed polls that the byte budget stopped while two or more
/// of the feed's streams still had due elements: a cut in mid-merge.
class MergeCutCounter final : public EventFeed {
 public:
  MergeCutCounter(std::unique_ptr<NetworkFeed> inner,
                  const IngestGateway* gateway, std::vector<uint32_t> streams)
      : inner_(std::move(inner)),
        gateway_(gateway),
        streams_(std::move(streams)) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    inner_->PollUpTo(now, max_bytes, out);
    int due = 0;
    for (const uint32_t id : streams_) {
      const TimeMicros t = gateway_->PeekIngestTime(id);
      if (t != kNoTime && t <= now) ++due;
    }
    if (due >= 2) ++cuts_;
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }
  TimeMicros SafeThrough() const { return inner_->SafeThrough(); }
  int64_t cuts() const { return cuts_; }

 private:
  std::unique_ptr<NetworkFeed> inner_;
  const IngestGateway* gateway_;
  std::vector<uint32_t> streams_;
  int64_t cuts_ = 0;
};

TEST(IngestLoopbackTest, MultiStreamTcpIngestMatchesInProcessResults) {
  // LRB's accident windows span 5 s, so results need a longer run.
  constexpr TimeMicros kLrbDuration = SecondsToMicros(12);
  const LrbConfig wc;
  Engine reference(LrbEngineConfig(),
                   MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  const QueryId ref_id = reference.AddQuery(
      MakeLrbQuery(0, wc),
      MakeLrbFeed(wc, std::make_unique<ConstantDelay>(0), kSeed,
                  /*start_time=*/0),
      /*deploy_time=*/0);
  reference.RunUntil(kLrbDuration);
  const SinkSnapshot expected = Snapshot(reference.query(ref_id));
  ASSERT_GT(expected.results, 0);
  ASSERT_GT(expected.swm_count, 0);

  // Networked run: one connection per LRB sub-stream, all three merged by
  // one NetworkFeed.
  Engine engine(LrbEngineConfig(),
                MakePolicy(PolicyKind::kFcfs, KlinkPolicyConfig{}, kSeed));
  IngestGateway gateway;
  std::vector<uint32_t> streams;
  for (int s = 0; s < 3; ++s) {
    streams.push_back(MakeStreamId(0, s));
    gateway.RegisterStream(streams.back(), IngestStreamConfig{});
  }
  auto feed = std::make_unique<MergeCutCounter>(
      std::make_unique<NetworkFeed>(&gateway, streams), &gateway, streams);
  MergeCutCounter* feed_ptr = feed.get();
  const QueryId id =
      engine.AddQuery(MakeLrbQuery(0, wc), std::move(feed), /*deploy_time=*/0);

  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  std::thread client([port, wc, kLrbDuration]() {
    auto replay_feed = MakeLrbFeed(wc, std::make_unique<ConstantDelay>(0),
                                   kSeed, /*start_time=*/0);
    LoadgenConnection conns[3];
    for (int s = 0; s < 3; ++s) {
      ASSERT_TRUE(conns[s].Connect("127.0.0.1", port, MakeStreamId(0, s)).ok());
    }
    ReplayOptions opts;
    opts.until = kLrbDuration;
    opts.speed = 0.0;  // blast
    ASSERT_TRUE(
        ReplayFeed(*replay_feed, {&conns[0], &conns[1], &conns[2]}, opts)
            .ok());
  });

  const DurationMicros cycle = engine.config().cycle_length;
  while (engine.now() < kLrbDuration) {
    const TimeMicros safe = feed_ptr->SafeThrough();
    if (safe >= kLrbDuration) {
      engine.RunUntil(kLrbDuration);
    } else if (engine.now() + cycle <= safe) {
      engine.RunUntil(engine.now() + cycle);
    } else {
      server.PollOnce(/*timeout_ms=*/10);
    }
  }
  // The run can end once every stream is staged through its last element;
  // keep serving until the client's byes close its connections.
  while (server.num_connections() > 0) server.PollOnce(/*timeout_ms=*/10);
  client.join();
  server.Stop();

  // The budget really did cut polls between streams.
  EXPECT_GT(feed_ptr->cuts(), 0);
  const SinkSnapshot got = Snapshot(engine.query(id));
  EXPECT_EQ(got.results, expected.results);
  EXPECT_EQ(got.hash, expected.hash);
  EXPECT_EQ(got.last_result_time, expected.last_result_time);
  EXPECT_EQ(got.swm_count, expected.swm_count);
  EXPECT_DOUBLE_EQ(got.swm_mean, expected.swm_mean);
  EXPECT_EQ(engine.metrics().ingested_events(),
            reference.metrics().ingested_events());
  EXPECT_EQ(gateway.metrics().malformed_frames(), 0);
}

TEST(IngestLoopbackTest, SlowConsumerStaysUnderByteBudget) {
  constexpr int64_t kBudget = 8192;
  constexpr int kEvents = 20000;
  // Staging cost of one default data event (payload + queue overhead).
  constexpr int64_t kEventCost = 64 + StreamQueue::kPerEventOverhead;

  IngestGateway gateway;
  IngestStreamConfig sc;
  sc.byte_budget = kBudget;
  gateway.RegisterStream(7, sc);
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::thread client([port]() {
    LoadgenConnection conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", port, 7).ok());
    for (int i = 0; i < kEvents; ++i) {
      // Blocks in send() once the server pauses reads: TCP flow control
      // is the long-haul segment of the backpressure chain.
      ASSERT_TRUE(conn.SendEvent(MakeDataEvent(i, i, 0, 1.0)).ok());
    }
    ASSERT_TRUE(conn.SendBye().ok());
  });

  // Phase 1: poll without draining. The gateway must pause the connection
  // at the budget; staged bytes never exceed budget + one event.
  for (int i = 0; i < 200; ++i) {
    server.PollOnce(/*timeout_ms=*/5);
    ASSERT_LE(gateway.staged_bytes(7), kBudget + kEventCost);
  }
  EXPECT_GE(gateway.metrics().stream(7).backpressure_stalls, 1);
  EXPECT_LT(gateway.staged_events(7), kEvents);  // backpressure engaged

  // Phase 2: drain while polling; every event must come through, in order.
  int64_t popped = 0;
  while (popped < kEvents) {
    if (gateway.staged_events(7) == 0) {
      server.PollOnce(/*timeout_ms=*/10);
      continue;
    }
    const Event e = PopStaged(gateway, 7, /*max_bytes=*/1).front();
    if (e.is_data()) {
      ASSERT_EQ(e.event_time, popped);
      ++popped;
    }
    // Opportunistically resume the paused client.
    if (gateway.staged_bytes(7) < kBudget / 2) server.PollOnce(0);
  }
  client.join();
  while (!gateway.end_of_stream(7)) server.PollOnce(/*timeout_ms=*/10);
  EXPECT_EQ(gateway.staged_events(7), 0);
  EXPECT_LE(gateway.peak_staged_bytes(7), kBudget + kEventCost);
  EXPECT_GT(gateway.metrics().stream(7).stall_micros, 0);
  server.Stop();
}

/// Raw-socket client helpers for the robustness tests.
int MustConnect(uint16_t port) {
  StatusOr<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  // The test polls the server and the client socket from one thread, so
  // reads back from the server must not block.
  EXPECT_TRUE(SetNonBlocking(fd.value()).ok());
  return fd.value();
}

void SendBytes(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(SendAll(fd, bytes.data(), bytes.size()).ok());
}

/// Polls the server until the peer closes `fd`, collecting everything the
/// server sent. Scans past non-error frames (a HELLO_ACK precedes any
/// error once the greeting succeeded) and returns the first error frame's
/// code, or 0 if the connection closed without one.
uint16_t DrainUntilClosed(IngestServer& server, int fd) {
  std::vector<uint8_t> received;
  uint8_t chunk[512];
  for (int i = 0; i < 500; ++i) {
    server.PollOnce(/*timeout_ms=*/2);
    const StatusOr<int64_t> n = ReadSome(fd, chunk, sizeof(chunk));
    if (!n.ok()) break;
    if (n.value() > 0) {
      received.insert(received.end(), chunk, chunk + n.value());
      continue;
    }
    if (n.value() == 0) break;  // orderly close from the server
  }
  CloseFd(fd);
  size_t off = 0;
  while (off < received.size()) {
    Frame frame;
    size_t consumed = 0;
    if (DecodeFrame(received.data() + off, received.size() - off, &frame,
                    &consumed) != DecodeResult::kOk) {
      break;
    }
    if (frame.type == FrameType::kError) return frame.error_code;
    off += consumed;
  }
  return 0;
}

TEST(IngestLoopbackTest, MalformedFrameDrawsErrorAndClose) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF});
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kMalformedFrame));
  EXPECT_EQ(server.num_connections(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, UnknownStreamHelloRejected) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(999, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kUnknownStream));
  EXPECT_EQ(server.num_connections(), 0);
  server.Stop();
}

TEST(IngestLoopbackTest, ElementBeforeHelloRejected) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeEvent(MakeDataEvent(1, 2, 3, 4.0), /*seq=*/1, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kProtocolViolation));
  EXPECT_EQ(server.num_connections(), 0);
  server.Stop();
}

TEST(IngestLoopbackTest, MidStreamDisconnectKeepsDeliveredPrefix) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  for (int i = 0; i < 10; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  SendBytes(fd, bytes);
  CloseFd(fd);  // abrupt: no kBye

  for (int i = 0; i < 200 && server.num_connections() == 0; ++i) {
    server.PollOnce(/*timeout_ms=*/2);  // accept
  }
  ASSERT_GT(server.num_connections(), 0);
  for (int i = 0; i < 200 && server.num_connections() > 0; ++i) {
    server.PollOnce(/*timeout_ms=*/2);  // read + observe the disconnect
  }
  EXPECT_EQ(gateway.staged_events(1), 10);
  EXPECT_EQ(server.num_connections(), 0);
  // No Bye means no end-of-stream promise: the stream's arrival watermark
  // stays finite so a lockstep consumer does not run past the truncation.
  EXPECT_FALSE(gateway.end_of_stream(1));
  EXPECT_LT(gateway.StagedThrough(1),
            std::numeric_limits<TimeMicros>::max());
  server.Stop();
}

TEST(IngestLoopbackTest, VersionSkewRejectedWithTypedError) {
  // A client speaking protocol v1 against a v2 server: the server must
  // answer with the typed kVersionMismatch error and close, not hang or
  // misparse the old layout.
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  bytes[2] = kWireVersion - 1;  // rewrite the version byte: an old client
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kVersionMismatch));
  EXPECT_EQ(server.num_connections(), 0);
  EXPECT_EQ(gateway.metrics().malformed_frames(), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, SequenceGapDrawsProtocolViolation) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  EncodeEvent(MakeDataEvent(1, 1, 0, 1.0), /*seq=*/1, &bytes);
  EncodeEvent(MakeDataEvent(2, 2, 0, 1.0), /*seq=*/3, &bytes);  // gap: no 2
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kProtocolViolation));
  EXPECT_EQ(server.num_connections(), 0);
  // The contiguous prefix before the gap was delivered.
  EXPECT_EQ(gateway.staged_events(1), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, DuplicateSequencesDroppedSilently) {
  // Replay overlap after a reconnect: duplicates of already-delivered
  // seqs are dropped without error, and delivery resumes at the tail.
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServer server(IngestServerConfig{}, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  for (int i = 0; i < 5; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  // Duplicate replay of seqs 3..5, then fresh 6..7.
  for (int i = 2; i < 7; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  EncodeBye(&bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd), 0);  // no error: a clean bye
  EXPECT_EQ(gateway.staged_events(1), 7);
  EXPECT_EQ(gateway.duplicate_events(1), 3);
  EXPECT_EQ(gateway.last_seq_received(1), 7u);
  // Staged elements are the dedup'd contiguous stream, in order.
  const std::vector<Event> staged = PopStaged(gateway, 1);
  ASSERT_EQ(staged.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    const Event& e = staged[static_cast<size_t>(i)];
    ASSERT_TRUE(e.is_data());
    EXPECT_EQ(e.event_time, i);
  }
  EXPECT_EQ(gateway.delivered_seq(1), 7u);
  server.Stop();
}

TEST(IngestLoopbackTest, IdleConnectionTimedOut) {
  IngestGateway gateway;
  gateway.RegisterStream(1, IngestStreamConfig{});
  IngestServerConfig config;
  config.idle_timeout_ms = 30;
  IngestServer server(config, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  SendBytes(fd, bytes);

  EXPECT_EQ(DrainUntilClosed(server, fd),
            static_cast<uint16_t>(WireError::kIdleTimeout));
  EXPECT_EQ(gateway.metrics().idle_timeouts(), 1);
  server.Stop();
}

TEST(IngestLoopbackTest, ResumedConnectionIsNotIdleTimedOut) {
  // The server pauses a connection for lack of credit; reads stop, so the
  // connection's last read ages past the idle timeout through no fault of
  // the peer. Resuming must restart the idle clock instead of closing the
  // connection on the very next poll.
  IngestGateway gateway;
  IngestStreamConfig sc;
  sc.byte_budget = 8192;
  gateway.RegisterStream(1, sc);
  IngestServerConfig config;
  config.idle_timeout_ms = 100;
  IngestServer server(config, &gateway);
  ASSERT_TRUE(server.Start().ok());

  const int fd = MustConnect(server.port());
  std::vector<uint8_t> bytes;
  EncodeHello(1, &bytes);
  for (int i = 0; i < 120; ++i) {
    EncodeEvent(MakeDataEvent(i, i, 0, 1.0),
                /*seq=*/static_cast<uint64_t>(i + 1), &bytes);
  }
  SendBytes(fd, bytes);
  for (int i = 0;
       i < 500 && gateway.metrics().stream(1).backpressure_stalls == 0; ++i) {
    server.PollOnce(/*timeout_ms=*/2);
  }
  ASSERT_EQ(gateway.metrics().stream(1).backpressure_stalls, 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  PopStaged(gateway, 1);
  ASSERT_EQ(gateway.staged_events(1), 0);
  server.PollOnce(/*timeout_ms=*/0);

  EXPECT_EQ(gateway.metrics().idle_timeouts(), 0);
  EXPECT_EQ(server.num_connections(), 1);
  EXPECT_EQ(gateway.last_seq_received(1), 120u);  // buffered frames resumed
  CloseFd(fd);
  server.Stop();
}

/// Everything one delivery of a byte stream left behind, drained in order.
struct Delivery {
  std::vector<Event> staged;
  uint64_t last_seq = 0;
  int64_t duplicates = 0;
  IngestStreamMetrics metrics;
  int64_t frames_decoded = 0;
};

/// Sends `bytes` as consecutive fragments of the given sizes, each only
/// after the server has read everything before it, so every fragment
/// boundary is a read boundary. The stream's budget is small, so the test
/// drains staging after every stall: stalls then happen at the same
/// elements however the bytes arrive.
Delivery DeliverFragmented(const std::vector<uint8_t>& bytes,
                           const std::vector<size_t>& fragments) {
  constexpr uint32_t kStream = 3;
  IngestGateway gateway;
  IngestStreamConfig sc;
  sc.byte_budget = 4096;
  gateway.RegisterStream(kStream, sc);
  IngestServer server(IngestServerConfig{}, &gateway);
  EXPECT_TRUE(server.Start().ok());

  std::atomic<int64_t> read_through{0};
  std::atomic<bool> abort{false};
  std::thread sender([&]() {
    StatusOr<int> fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    size_t sent = 0;
    for (const size_t n : fragments) {
      ASSERT_TRUE(SendAll(fd.value(), bytes.data() + sent, n).ok());
      sent += n;
      while (read_through.load() < static_cast<int64_t>(sent) &&
             !abort.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    CloseFd(fd.value());
  });

  Delivery d;
  const auto drain = [&]() {
    const std::vector<Event> run = PopStaged(gateway, kStream);
    d.staged.insert(d.staged.end(), run.begin(), run.end());
  };
  int64_t stalls_drained = 0;
  for (int i = 0; i < 20000 && !gateway.end_of_stream(kStream); ++i) {
    server.PollOnce(/*timeout_ms=*/1);
    read_through.store(gateway.metrics().bytes_read());
    const int64_t stalls = gateway.metrics().stream(kStream).backpressure_stalls;
    if (stalls > stalls_drained) {
      drain();
      stalls_drained = stalls;
    }
  }
  EXPECT_TRUE(gateway.end_of_stream(kStream));
  abort.store(true);
  sender.join();
  drain();
  d.last_seq = gateway.last_seq_received(kStream);
  d.duplicates = gateway.duplicate_events(kStream);
  d.metrics = gateway.metrics().stream(kStream);
  d.frames_decoded = gateway.metrics().frames_decoded();
  EXPECT_EQ(gateway.delivered_seq(kStream), d.last_seq);
  server.Stop();
  return d;
}

TEST(IngestLoopbackTest, FragmentedDeliveryMatchesWholeDelivery) {
  // Hello, 1500 mixed elements, a reconnect-style replay of the last 60,
  // 900 fresh ones, bye: ~130 KB, so even the whole delivery spans several
  // reads, and a 4 KB budget pauses decoding dozens of times mid-buffer.
  Rng rng(7);
  std::vector<Event> elements;
  for (int i = 0; i < 2400; ++i) {
    const TimeMicros t = i * 100;
    const int64_t kind = rng.NextInt(0, 19);
    if (kind == 0) {
      Event wm = MakeWatermark(t - 50, t);
      wm.swm = rng.NextInt(0, 1) == 1;
      elements.push_back(wm);
    } else if (kind == 1) {
      elements.push_back(MakeLatencyMarker(t, t));
    } else {
      elements.push_back(MakeDataEvent(
          t, t + rng.NextInt(0, 40), static_cast<uint64_t>(rng.NextInt(0, 99)),
          rng.NextDouble(), static_cast<uint32_t>(rng.NextInt(16, 256))));
    }
  }
  std::vector<uint8_t> bytes;
  EncodeHello(3, &bytes);
  for (size_t i = 0; i < 1500; ++i) {
    EncodeEvent(elements[i], /*seq=*/i + 1, &bytes);
  }
  for (size_t i = 1440; i < elements.size(); ++i) {  // 60 duplicates first
    EncodeEvent(elements[i], /*seq=*/i + 1, &bytes);
  }
  EncodeBye(&bytes);

  const Delivery whole = DeliverFragmented(bytes, {bytes.size()});
  ASSERT_EQ(whole.staged.size(), elements.size());
  EXPECT_EQ(whole.last_seq, elements.size());
  EXPECT_EQ(whole.duplicates, 60);
  EXPECT_GT(whole.metrics.backpressure_stalls, 20);
  EXPECT_EQ(whole.metrics.frames, static_cast<int64_t>(elements.size()));
  for (size_t i = 0; i < elements.size(); ++i) {
    const Event& e = whole.staged[i];
    ASSERT_EQ(e.kind, elements[i].kind) << i;
    ASSERT_EQ(e.event_time, elements[i].event_time) << i;
    ASSERT_EQ(e.ingest_time, elements[i].ingest_time) << i;
  }

  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("fragmentation seed " + std::to_string(seed));
    // Fragment sizes log-uniform in [1 B, 64 KB].
    Rng cut_rng(seed);
    std::vector<size_t> fragments;
    size_t left = bytes.size();
    while (left > 0) {
      const double log_size = cut_rng.NextDouble() * std::log(65536.0);
      const size_t n = std::min(
          left, std::max<size_t>(1, static_cast<size_t>(std::exp(log_size))));
      fragments.push_back(n);
      left -= n;
    }
    const Delivery split = DeliverFragmented(bytes, fragments);
    ASSERT_EQ(split.staged.size(), whole.staged.size());
    for (size_t i = 0; i < whole.staged.size(); ++i) {
      const Event& a = whole.staged[i];
      const Event& b = split.staged[i];
      ASSERT_TRUE(a.kind == b.kind && a.event_time == b.event_time &&
                  a.ingest_time == b.ingest_time && a.key == b.key &&
                  a.value == b.value && a.payload_bytes == b.payload_bytes &&
                  a.swm == b.swm)
          << "element " << i;
    }
    EXPECT_EQ(split.last_seq, whole.last_seq);
    EXPECT_EQ(split.duplicates, whole.duplicates);
    EXPECT_EQ(split.metrics.frames, whole.metrics.frames);
    EXPECT_EQ(split.metrics.bytes, whole.metrics.bytes);
    EXPECT_EQ(split.metrics.data_events, whole.metrics.data_events);
    EXPECT_EQ(split.metrics.backpressure_stalls,
              whole.metrics.backpressure_stalls);
    EXPECT_EQ(split.metrics.peak_staged_bytes, whole.metrics.peak_staged_bytes);
    EXPECT_EQ(split.frames_decoded, whole.frames_decoded);
  }
}

}  // namespace
}  // namespace klink
