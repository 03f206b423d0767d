// NetworkFeed's run-at-a-time merge against a one-element-at-a-time
// oracle: random staged contents with ingest-time ties within and across
// streams, random poll horizons and random byte budgets. Every poll must
// yield the oracle's elements in the oracle's order with the oracle's
// source indices, and each stream's delivered_seq (the checkpoint replay
// cursor) must equal the number of its elements the oracle has popped.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/event/stream_queue.h"
#include "src/net/ingest_gateway.h"

namespace klink {
namespace {

using FeedElement = EventFeed::FeedElement;

/// The one-element-at-a-time merge that defines NetworkFeed's order:
/// repeatedly pop the due front with the smallest ingest_time (lower
/// stream index on ties), always at least one element, stopping before the
/// byte budget would be exceeded.
void OraclePoll(std::vector<std::deque<Event>>& streams, TimeMicros now,
                int64_t max_bytes, std::vector<FeedElement>* out) {
  int64_t delivered = 0;
  while (true) {
    int best = -1;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].empty() || streams[i].front().ingest_time > now) continue;
      if (best < 0 || streams[i].front().ingest_time <
                          streams[static_cast<size_t>(best)].front().ingest_time) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return;
    std::deque<Event>& s = streams[static_cast<size_t>(best)];
    const int64_t sz = s.front().payload_bytes + StreamQueue::kPerEventOverhead;
    if (delivered > 0 && delivered + sz > max_bytes) return;
    delivered += sz;
    out->push_back(FeedElement{best, s.front()});
    s.pop_front();
  }
}

Event RandomElement(Rng& rng, TimeMicros ingest_time, uint64_t tag) {
  switch (rng.NextInt(0, 9)) {
    case 0:
      return MakeWatermark(ingest_time - 5, ingest_time);
    case 1:
      return MakeLatencyMarker(ingest_time, ingest_time);
    default:
      return MakeDataEvent(ingest_time, ingest_time, tag, 1.0,
                           static_cast<uint32_t>(rng.NextInt(8, 200)));
  }
}

TEST(NetworkFeedTest, RunMergeMatchesScalarOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int num_streams = static_cast<int>(rng.NextInt(1, 4));
    IngestGateway gateway;
    std::vector<uint32_t> ids;
    std::vector<std::deque<Event>> oracle(static_cast<size_t>(num_streams));
    std::vector<uint64_t> popped(static_cast<size_t>(num_streams), 0);
    for (int s = 0; s < num_streams; ++s) {
      ids.push_back(static_cast<uint32_t>(10 + s));
      gateway.RegisterStream(ids.back(), IngestStreamConfig{});
    }
    NetworkFeed feed(&gateway, ids);

    uint64_t tag = 0;
    std::vector<TimeMicros> clock(static_cast<size_t>(num_streams), 0);
    std::vector<uint64_t> seq(static_cast<size_t>(num_streams), 0);
    TimeMicros now = 0;
    for (int round = 0; round < 60; ++round) {
      // Stage a random batch per stream: ingest times advance by 0-2 so
      // runs of equal times form within and across streams.
      for (int s = 0; s < num_streams; ++s) {
        const size_t si = static_cast<size_t>(s);
        IngestGateway::Stream& stream = gateway.Resolve(ids[si]);
        const int64_t n = rng.NextInt(0, 40);
        for (int64_t k = 0; k < n; ++k) {
          clock[si] += rng.NextInt(0, 2);
          const Event e = RandomElement(rng, clock[si], ++tag);
          ASSERT_EQ(gateway.AcceptSeq(stream, ++seq[si]),
                    IngestGateway::SeqDecision::kAccept);
          gateway.Deliver(stream, e);
          oracle[si].push_back(e);
        }
        gateway.Flush(stream);
      }
      now += rng.NextInt(0, 30);
      const int64_t budget = rng.NextInt(0, 3) == 0
                                 ? rng.NextInt(1, 100)
                                 : rng.NextInt(100, 6000);
      std::vector<FeedElement> got;
      std::vector<FeedElement> want;
      feed.PollUpTo(now, budget, &got);
      OraclePoll(oracle, now, budget, &want);
      ASSERT_EQ(got.size(), want.size()) << "round " << round;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].source_index, want[i].source_index)
            << "round " << round << " element " << i;
        ASSERT_EQ(got[i].event.key, want[i].event.key);
        ASSERT_EQ(got[i].event.kind, want[i].event.kind);
        ASSERT_EQ(got[i].event.ingest_time, want[i].event.ingest_time);
        ++popped[static_cast<size_t>(want[i].source_index)];
      }
      for (int s = 0; s < num_streams; ++s) {
        const size_t si = static_cast<size_t>(s);
        ASSERT_EQ(gateway.delivered_seq(ids[si]), popped[si]);
        ASSERT_EQ(gateway.staged_events(ids[si]),
                  static_cast<int64_t>(oracle[si].size()));
      }
    }
  }
}

}  // namespace
}  // namespace klink
