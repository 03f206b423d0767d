#include "src/event/stream_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "src/common/rng.h"

namespace klink {

/// Reads the chunk bookkeeping the lifecycle tests assert on.
class StreamQueueTestPeer {
 public:
  /// Chunks the queue owns: in-use ring slots plus the spare.
  static int64_t OwnedChunks(const StreamQueue& q) {
    int64_t owned = q.spare_ != nullptr ? 1 : 0;
    for (const auto& chunk : q.chunks_) owned += chunk != nullptr ? 1 : 0;
    return owned;
  }
  /// Front offset within the front chunk.
  static int64_t Head(const StreamQueue& q) { return q.head_; }
};

namespace {

/// Memory sink that records the running sum of reported deltas.
class RecordingSink final : public MemoryDeltaSink {
 public:
  void OnMemoryDelta(int64_t delta_bytes) override { total += delta_bytes; }
  int64_t total = 0;
};

TEST(StreamQueueTest, FifoOrder) {
  StreamQueue q;
  q.Push(MakeDataEvent(1, 10, 1, 1.0));
  q.Push(MakeDataEvent(2, 20, 2, 2.0));
  q.Push(MakeDataEvent(3, 30, 3, 3.0));
  EXPECT_EQ(q.Pop().key, 1u);
  EXPECT_EQ(q.Pop().key, 2u);
  EXPECT_EQ(q.Pop().key, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(StreamQueueTest, ByteAccounting) {
  StreamQueue q;
  Event e = MakeDataEvent(0, 0, 0, 0.0, /*payload_bytes=*/100);
  q.Push(e);
  EXPECT_EQ(q.bytes(), 100 + StreamQueue::kPerEventOverhead);
  q.Push(e);
  EXPECT_EQ(q.bytes(), 2 * (100 + StreamQueue::kPerEventOverhead));
  q.Pop();
  EXPECT_EQ(q.bytes(), 100 + StreamQueue::kPerEventOverhead);
  q.Pop();
  EXPECT_EQ(q.bytes(), 0);
}

TEST(StreamQueueTest, DataCountExcludesPunctuation) {
  StreamQueue q;
  q.Push(MakeDataEvent(0, 0, 0, 0.0));
  q.Push(MakeWatermark(5, 6));
  q.Push(MakeLatencyMarker(7, 8));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.data_count(), 1);
  q.Pop();
  EXPECT_EQ(q.data_count(), 0);
}

TEST(StreamQueueTest, OldestIngestTime) {
  StreamQueue q;
  EXPECT_EQ(q.OldestIngestTime(), kNoTime);
  q.Push(MakeDataEvent(1, 17, 0, 0.0));
  q.Push(MakeDataEvent(2, 99, 0, 0.0));
  EXPECT_EQ(q.OldestIngestTime(), 17);
  q.Pop();
  EXPECT_EQ(q.OldestIngestTime(), 99);
}

TEST(StreamQueueTest, FrontPeeksWithoutRemoving) {
  StreamQueue q;
  q.Push(MakeDataEvent(1, 10, 42, 0.0));
  EXPECT_EQ(q.Front().key, 42u);
  EXPECT_EQ(q.size(), 1);
}

TEST(StreamQueueTest, AtIndexesFromTheFrontAcrossChunks) {
  StreamQueue q;
  const int64_t n = 3 * StreamQueue::kChunkEvents;
  for (int64_t i = 0; i < n; ++i) {
    q.Push(MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  // Move the front into the middle of the first chunk, then index across
  // both remaining chunk boundaries.
  std::vector<Event> out(100);
  q.PopBatch(out.data(), 100);
  for (int64_t i = 0; i < q.size(); ++i) {
    ASSERT_EQ(q.At(i).key, static_cast<uint64_t>(100 + i));
  }
}

TEST(StreamQueueTest, ClearResetsEverything) {
  StreamQueue q;
  q.Push(MakeDataEvent(0, 0, 0, 0.0));
  q.Push(MakeWatermark(1, 2));
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.data_count(), 0);
  EXPECT_EQ(q.OldestIngestTime(), kNoTime);
}

TEST(StreamQueueTest, WraparoundAcrossChunkBoundaries) {
  // Interleave pushes and pops so the head and tail cross chunk boundaries
  // many times and drained chunks are recycled; FIFO order and accounting
  // must survive the wraparound.
  StreamQueue q;
  const int64_t kSpan = 3 * StreamQueue::kChunkEvents + 17;
  uint64_t next_push = 0;
  uint64_t next_pop = 0;
  for (int round = 0; round < 5; ++round) {
    for (int64_t i = 0; i < kSpan; ++i) {
      q.Push(MakeDataEvent(static_cast<TimeMicros>(next_push),
                           static_cast<TimeMicros>(next_push), next_push, 1.0));
      ++next_push;
    }
    for (int64_t i = 0; i < kSpan; ++i) {
      ASSERT_EQ(q.Pop().key, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
}

TEST(StreamQueueTest, GrowWhileWrappedPreservesOrder) {
  // Force a capacity grow while the ring's head sits mid-buffer: fill past
  // one chunk, drain past the first chunk boundary, then push far beyond
  // the current capacity.
  StreamQueue q;
  uint64_t key = 0;
  for (int64_t i = 0; i < StreamQueue::kChunkEvents + 10; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  uint64_t expect = 0;
  for (int64_t i = 0; i < StreamQueue::kChunkEvents + 5; ++i) {
    ASSERT_EQ(q.Pop().key, expect++);
  }
  for (int64_t i = 0; i < 4 * StreamQueue::kChunkEvents; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  while (!q.empty()) {
    ASSERT_EQ(q.Pop().key, expect++);
  }
  EXPECT_EQ(expect, key);
}

TEST(StreamQueueTest, PushBatchMatchesScalarPushes) {
  std::vector<Event> events;
  for (int i = 0; i < 700; ++i) {
    events.push_back(i % 7 == 0
                         ? MakeWatermark(i, i + 1)
                         : MakeDataEvent(i, i + 1, static_cast<uint64_t>(i),
                                         1.0, /*payload_bytes=*/32 + i % 64));
  }
  StreamQueue scalar;
  StreamQueue batched;
  for (const Event& e : events) scalar.Push(e);
  batched.PushBatch(events.data(), static_cast<int64_t>(events.size()));
  ASSERT_EQ(batched.size(), scalar.size());
  EXPECT_EQ(batched.bytes(), scalar.bytes());
  EXPECT_EQ(batched.data_count(), scalar.data_count());
  while (!scalar.empty()) {
    const Event a = scalar.Pop();
    const Event b = batched.Pop();
    ASSERT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.key, b.key);
    ASSERT_EQ(a.event_time, b.event_time);
  }
}

TEST(StreamQueueTest, PopBatchPartialFill) {
  StreamQueue q;
  for (int i = 0; i < 10; ++i) {
    q.Push(MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  std::vector<Event> out(64);
  // Asking for more than available returns exactly what is queued.
  EXPECT_EQ(q.PopBatch(out.data(), 64), 10);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].key,
                                         static_cast<uint64_t>(i));
  // Popping from an empty queue is a no-op returning zero.
  EXPECT_EQ(q.PopBatch(out.data(), 64), 0);
}

TEST(StreamQueueTest, PopBatchSpansChunkBoundary) {
  StreamQueue q;
  const int64_t n = StreamQueue::kChunkEvents + 50;
  for (int64_t i = 0; i < n; ++i) {
    q.Push(MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  std::vector<Event> out(static_cast<size_t>(n));
  EXPECT_EQ(q.PopBatch(out.data(), n), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].key, static_cast<uint64_t>(i));
  }
}

TEST(StreamQueueTest, PopBatchIntoNullDropsWithAccounting) {
  StreamQueue q;
  const int64_t n = StreamQueue::kChunkEvents + 50;
  for (int64_t i = 0; i < n; ++i) {
    q.Push(i % 3 == 0 ? MakeWatermark(i, i)
                      : MakeDataEvent(i, i, static_cast<uint64_t>(i), 0.0));
  }
  // Drop a run that crosses the first chunk boundary.
  const int64_t dropped = StreamQueue::kChunkEvents + 10;
  EXPECT_EQ(q.PopBatch(nullptr, dropped), dropped);
  EXPECT_EQ(q.size(), n - dropped);
  EXPECT_EQ(q.Front().event_time, dropped);
  EXPECT_EQ(q.bytes(), q.AuditRecomputeBytes());
  EXPECT_EQ(q.data_count(), q.AuditRecomputeDataCount());
  EXPECT_EQ(q.PopBatch(nullptr, n), n - dropped);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.data_count(), 0);
}

TEST(StreamQueueTest, InterleavedOpsKeepInvariants) {
  // Seeded random Push/PushBatch/Pop/PopBatch/Clear checked against a
  // reference deque. Phases alternate between growing the queue across
  // several chunks and draining it to empty, so chunk retirement, spare
  // reuse and release-on-empty all run many times. After every operation:
  // FIFO order, bytes, data count, the bound sink's running total, and the
  // chunk-ownership bound (none when empty, else the chunks spanning
  // [0, head + size) plus one spare).
  Rng rng(2024);
  RecordingSink sink;
  StreamQueue q;
  q.BindAccounting(&sink);
  std::deque<Event> ref;
  std::vector<Event> scratch(256);
  int64_t drains = 0;
  int64_t max_chunks = 0;
  auto check = [&] {
    ASSERT_EQ(q.size(), static_cast<int64_t>(ref.size()));
    int64_t bytes = 0;
    int64_t data = 0;
    for (const Event& e : ref) {
      bytes += e.payload_bytes + StreamQueue::kPerEventOverhead;
      data += e.is_data() ? 1 : 0;
    }
    ASSERT_EQ(q.bytes(), bytes);
    ASSERT_EQ(q.data_count(), data);
    ASSERT_EQ(sink.total, bytes);
    ASSERT_EQ(q.OldestIngestTime(),
              ref.empty() ? kNoTime : ref.front().ingest_time);
    const int64_t owned = StreamQueueTestPeer::OwnedChunks(q);
    if (ref.empty()) {
      ASSERT_EQ(owned, 0);
    } else {
      const int64_t span = StreamQueueTestPeer::Head(q) + q.size();
      const int64_t in_use =
          (span + StreamQueue::kChunkEvents - 1) / StreamQueue::kChunkEvents;
      ASSERT_LE(owned, in_use + 1);
      max_chunks = std::max(max_chunks, owned);
    }
  };
  bool filling = true;
  for (int step = 0; step < 6000; ++step) {
    if (filling && q.size() > rng.NextInt(1, 5) * StreamQueue::kChunkEvents) {
      filling = false;
    } else if (!filling && ref.empty()) {
      filling = true;
      ++drains;
    }
    // Filling favours pushes 3:1; draining favours pops 3:1.
    const bool push = rng.NextInt(0, 3) == 0 ? !filling : filling;
    const int64_t action = rng.NextInt(0, 1);
    if (push && action == 0) {
      const Event e = MakeDataEvent(step, step + 1,
                                    rng.NextUint64() % 1000, 1.0,
                                    static_cast<uint32_t>(rng.NextInt(16, 256)));
      q.Push(e);
      ref.push_back(e);
    } else if (push) {
      const int64_t n = rng.NextInt(1, 200);
      scratch.clear();
      for (int64_t i = 0; i < n; ++i) {
        scratch.push_back(i % 5 == 0
                              ? MakeWatermark(step, step)
                              : MakeDataEvent(step, step,
                                              rng.NextUint64() % 1000, 1.0));
      }
      q.PushBatch(scratch.data(), n);
      ref.insert(ref.end(), scratch.begin(), scratch.end());
    } else if (rng.NextInt(0, 199) == 0) {
      q.Clear();
      ref.clear();
    } else if (action == 0) {
      if (!ref.empty()) {
        const Event got = q.Pop();
        ASSERT_EQ(got.key, ref.front().key);
        ASSERT_EQ(got.kind, ref.front().kind);
        ref.pop_front();
      }
    } else {
      const int64_t want = rng.NextInt(1, 150);
      scratch.resize(static_cast<size_t>(want));
      const int64_t got = q.PopBatch(scratch.data(), want);
      ASSERT_EQ(got, std::min<int64_t>(want, static_cast<int64_t>(ref.size())));
      for (int64_t i = 0; i < got; ++i) {
        ASSERT_EQ(scratch[static_cast<size_t>(i)].key, ref.front().key);
        ASSERT_EQ(scratch[static_cast<size_t>(i)].kind, ref.front().kind);
        ref.pop_front();
      }
    }
    check();
    if (HasFatalFailure()) return;
  }
  // The schedule really exercised the lifecycle: many drains to empty and
  // queues spanning several chunks.
  EXPECT_GT(drains, 20);
  EXPECT_GE(max_chunks, 4);
}

TEST(StreamQueueTest, DrainedChunksBecomeOneSpareThenAreFreed) {
  StreamQueue q;
  uint64_t key = 0;
  for (int64_t i = 0; i < 4 * StreamQueue::kChunkEvents; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 4);
  std::vector<Event> out(static_cast<size_t>(StreamQueue::kChunkEvents));
  // The first drained chunk is kept as the spare...
  q.PopBatch(out.data(), StreamQueue::kChunkEvents);
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 4);
  // ...a second one is freed.
  for (int64_t i = 0; i < StreamQueue::kChunkEvents; ++i) q.Pop();
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 3);
  // The next chunk the tail needs is the spare: no growth.
  for (int64_t i = 0; i < StreamQueue::kChunkEvents; ++i) {
    q.Push(MakeDataEvent(0, 0, key++, 0.0));
  }
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 3);
  uint64_t expect = 2 * static_cast<uint64_t>(StreamQueue::kChunkEvents);
  while (q.size() > 1) ASSERT_EQ(q.Pop().key, expect++);
  EXPECT_GE(StreamQueueTestPeer::OwnedChunks(q), 1);
  // Draining to empty releases everything, the spare included.
  ASSERT_EQ(q.Pop().key, expect++);
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 0);
  EXPECT_EQ(expect, key);
  // So does Clear, and the queue is usable afterwards.
  q.Push(MakeDataEvent(0, 0, 7, 0.0));
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 1);
  q.Clear();
  EXPECT_EQ(StreamQueueTestPeer::OwnedChunks(q), 0);
  q.Push(MakeDataEvent(0, 0, 8, 0.0));
  EXPECT_EQ(q.Pop().key, 8u);
}

TEST(StreamQueueTest, BoundSinkObservesAllDeltas) {
  RecordingSink sink;
  StreamQueue q;
  q.Push(MakeDataEvent(0, 0, 0, 0.0));  // pre-bind bytes are not reported
  const int64_t pre_bind = q.bytes();
  q.BindAccounting(&sink);
  std::vector<Event> batch(50, MakeDataEvent(1, 1, 1, 1.0));
  q.PushBatch(batch.data(), 50);
  q.Pop();
  q.PopBatch(batch.data(), 20);
  EXPECT_EQ(pre_bind + sink.total, q.bytes());
  q.Clear();
  EXPECT_EQ(pre_bind + sink.total, 0);
}

TEST(EventTest, NetworkDelay) {
  const Event e = MakeDataEvent(/*event_time=*/100, /*ingest_time=*/175, 0, 0.0);
  EXPECT_EQ(e.network_delay(), 75);
}

TEST(EventTest, KindPredicates) {
  EXPECT_TRUE(MakeDataEvent(0, 0, 0, 0.0).is_data());
  EXPECT_TRUE(MakeWatermark(0, 0).is_watermark());
  EXPECT_TRUE(MakeLatencyMarker(0, 0).is_latency_marker());
  EXPECT_FALSE(MakeWatermark(0, 0).is_data());
}

}  // namespace
}  // namespace klink
