// Queue memory tracks live events, not per-queue high-water marks. Under
// Klink a few of many queries run per cycle, so each query's queues fill
// while it waits and drain when it runs, each at a different time. A queue
// that kept its chunks at its own peak would hold the sum of all peaks;
// this test runs a multi-tenant LRB engine cycle by cycle and bounds the
// chunk bytes owned by every operator input queue by the live events.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/stream_queue.h"
#include "src/harness/experiment.h"
#include "src/query/query.h"
#include "src/runtime/engine.h"
#include "src/workloads/lrb.h"

namespace klink {

/// Reads how much chunk storage a queue owns.
class StreamQueueTestPeer {
 public:
  static int64_t OwnedChunkBytes(const StreamQueue& q) {
    int64_t owned = q.spare_ != nullptr ? 1 : 0;
    for (const auto& chunk : q.chunks_) owned += chunk != nullptr ? 1 : 0;
    return owned * static_cast<int64_t>(sizeof(StreamQueue::Chunk));
  }
};

namespace {

TEST(QueueFootprintTest, ChunkBytesStayWithinLiveEvents) {
  constexpr int kQueries = 100;
  EngineConfig config;
  config.num_cores = 8;
  Engine engine(config,
                MakePolicy(PolicyKind::kKlink, KlinkPolicyConfig{}, 1));
  std::vector<QueryId> ids;
  for (int q = 0; q < kQueries; ++q) {
    LrbConfig wc;
    wc.events_per_substream_per_second = 200.0;
    wc.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
    wc.window_offset = MillisToMicros(17) * q;
    ids.push_back(engine.AddQuery(
        MakeLrbQuery(q, wc),
        MakeLrbFeed(wc, MakeDelayModel(DelayKind::kUniform),
                    1000 + static_cast<uint64_t>(q), 0)));
  }

  const int64_t chunk_bytes =
      StreamQueue::kChunkEvents * static_cast<int64_t>(sizeof(Event));
  int64_t peak_queue = 0;
  for (int cycle = 0; engine.now() < SecondsToMicros(8); ++cycle) {
    engine.RunFor(config.cycle_length);
    int64_t owned = 0;
    int64_t live = 0;
    int64_t non_empty = 0;
    for (const QueryId id : ids) {
      const Query& query = engine.query(id);
      for (int o = 0; o < query.num_operators(); ++o) {
        const Operator& op = query.op(o);
        for (int s = 0; s < op.num_inputs(); ++s) {
          const StreamQueue& q = op.input(s);
          owned += StreamQueueTestPeer::OwnedChunkBytes(q);
          live += q.size();
          non_empty += q.empty() ? 0 : 1;
          peak_queue = std::max(peak_queue, q.size());
        }
      }
    }
    ASSERT_LE(owned, live * static_cast<int64_t>(sizeof(Event)) +
                         2 * chunk_bytes * non_empty)
        << "cycle " << cycle << ": " << live << " live events in "
        << non_empty << " non-empty queues";
  }
  // The run exercised the case the bound is about: queues several chunks
  // deep that later drain.
  EXPECT_GT(peak_queue, 2 * StreamQueue::kChunkEvents);
  EXPECT_GT(engine.metrics().processed_events(), 0);
}

}  // namespace
}  // namespace klink
