// EventFeed::DeliverUpTo against the path it replaced: PollUpTo into
// FeedElements, then each element pushed into its source's queue with
// `stream` re-stamped to 0. For SyntheticFeed (one-source YSB,
// three-source LRB; it takes the base-class default, poll + partition)
// and NetworkFeed (1-3 streams; its override moves staged runs, and the
// default is checked beside it), over random horizons and random byte
// budgets (many of them binding), every entry point and the oracle must
// leave every source queue with the same elements (every field, stream
// 0), report the same delivered bytes and data events, and leave the feed
// where the next poll yields the same elements.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/event/stream_queue.h"
#include "src/net/delay_model.h"
#include "src/net/ingest_gateway.h"
#include "src/operators/source_operator.h"
#include "src/query/query.h"
#include "src/runtime/event_feed.h"
#include "src/workloads/lrb.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

using FeedElement = EventFeed::FeedElement;

constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();

/// Overrides only PollUpTo, so DeliverUpTo takes the base-class default
/// (poll + partition) even around a NetworkFeed, as wrapping feeds in
/// tools and tests do.
class PollOnlyFeed final : public EventFeed {
 public:
  explicit PollOnlyFeed(std::unique_ptr<EventFeed> inner)
      : inner_(std::move(inner)) {}
  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    inner_->PollUpTo(now, max_bytes, out);
  }
  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
};

/// The replaced ingest path: poll, then push each element into its
/// source's queue with stream 0, one element at a time.
EventFeed::Delivery OracleDeliver(EventFeed& feed, TimeMicros now,
                                  int64_t max_bytes, Query& query) {
  std::vector<FeedElement> poll;
  feed.PollUpTo(now, max_bytes, &poll);
  EventFeed::Delivery d;
  for (const FeedElement& fe : poll) {
    Event e = fe.event;
    e.stream = 0;
    query.sources().at(static_cast<size_t>(fe.source_index))->input(0).Push(e);
    d.bytes += e.payload_bytes + StreamQueue::kPerEventOverhead;
    if (e.is_data()) ++d.data_events;
  }
  return d;
}

void ExpectSameEvent(const Event& a, const Event& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.ingest_time, b.ingest_time);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);  // exact: bitwise determinism
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.swm, b.swm);
}

/// Every source queue of `got` equals `want`'s, element by element.
void ExpectSameSourceQueues(const Query& got, const Query& want) {
  ASSERT_EQ(got.sources().size(), want.sources().size());
  for (size_t i = 0; i < want.sources().size(); ++i) {
    SCOPED_TRACE("source " + std::to_string(i));
    const StreamQueue& g = got.sources()[i]->input(0);
    const StreamQueue& w = want.sources()[i]->input(0);
    ASSERT_EQ(g.size(), w.size());
    EXPECT_EQ(g.bytes(), w.bytes());
    EXPECT_EQ(g.data_count(), w.data_count());
    EXPECT_EQ(g.bytes(), g.AuditRecomputeBytes());
    for (int64_t k = 0; k < w.size(); ++k) {
      ASSERT_EQ(g.At(k).stream, 0);
      ExpectSameEvent(g.At(k), w.At(k));
    }
  }
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes());
}

void ExpectSameDelivery(const EventFeed::Delivery& got,
                        const EventFeed::Delivery& want) {
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.data_events, want.data_events);
}

/// A byte budget: binding below one element a quarter of the time (the
/// always-one-element rule), binding mid-poll a quarter, else ample.
int64_t RandomBudget(Rng& rng) {
  switch (rng.NextInt(0, 3)) {
    case 0:
      return rng.NextInt(1, 150);
    case 1:
      return rng.NextInt(150, 4000);
    default:
      return kUnbounded;
  }
}

/// Empties every source queue, so memory stays small over many rounds.
void ClearSources(Query& query) {
  for (SourceOperator* src : query.sources()) src->input(0).Clear();
}

/// The feed's next poll through `now`, unbounded.
std::vector<FeedElement> NextPoll(EventFeed& feed, TimeMicros now) {
  std::vector<FeedElement> out;
  feed.PollUpTo(now, kUnbounded, &out);
  return out;
}

void ExpectSamePoll(const std::vector<FeedElement>& got,
                    const std::vector<FeedElement>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].source_index, want[i].source_index);
    ExpectSameEvent(got[i].event, want[i].event);
  }
}

using FeedFactory = std::unique_ptr<EventFeed> (*)(uint64_t seed);
using QueryFactory = std::unique_ptr<Query> (*)();

std::unique_ptr<EventFeed> YsbFeed(uint64_t seed) {
  YsbConfig config;
  config.events_per_second = 3000;
  return MakeYsbFeed(config, MakePaperUniformDelay(), seed, 0);
}
std::unique_ptr<Query> YsbQuery() { return MakeYsbQuery(0, YsbConfig{}); }

std::unique_ptr<EventFeed> LrbFeed(uint64_t seed) {
  LrbConfig config;
  config.events_per_substream_per_second = 1500;
  return MakeLrbFeed(config, MakePaperUniformDelay(), seed, 0);
}
std::unique_ptr<Query> LrbQuery() { return MakeLrbQuery(0, LrbConfig{}); }

void CheckSyntheticFeed(FeedFactory make_feed, QueryFactory make_query) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto feed = make_feed(seed);
    auto oracle = make_feed(seed);
    auto feed_q = make_query();
    auto oracle_q = make_query();
    Rng rng(seed * 31);
    TimeMicros now = 0;
    for (int round = 0; round < 150; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Horizons move by 0-200 ms: some polls find nothing new, most cut
      // the backlog a budget left behind.
      now += MillisToMicros(rng.NextInt(0, 200));
      const int64_t budget = RandomBudget(rng);
      const EventFeed::Delivery want =
          OracleDeliver(*oracle, now, budget, *oracle_q);
      ExpectSameDelivery(feed->DeliverUpTo(now, budget, *feed_q), want);
      ExpectSameSourceQueues(*feed_q, *oracle_q);
      if (rng.NextInt(0, 3) == 0) {
        ClearSources(*feed_q);
        ClearSources(*oracle_q);
      }
    }
    const TimeMicros next = now + SecondsToMicros(1);
    const std::vector<FeedElement> want = NextPoll(*oracle, next);
    EXPECT_FALSE(want.empty());
    ExpectSamePoll(NextPoll(*feed, next), want);
  }
}

TEST(FeedDeliveryTest, SyntheticYsbMatchesPollAndPartition) {
  CheckSyntheticFeed(&YsbFeed, &YsbQuery);
}

TEST(FeedDeliveryTest, SyntheticLrbMatchesPollAndPartition) {
  CheckSyntheticFeed(&LrbFeed, &LrbQuery);
}

TEST(FeedDeliveryTest, FeedsOfDifferentWidthsShareTheStaging) {
  // Every feed on a thread stages through one per-source scratch: a
  // three-source LRB delivery followed by a one-source YSB delivery (and
  // back) must leave each query exactly what its own oracle gets.
  auto lrb = LrbFeed(5);
  auto ysb = YsbFeed(6);
  auto lrb_oracle = LrbFeed(5);
  auto ysb_oracle = YsbFeed(6);
  auto lrb_q = LrbQuery();
  auto ysb_q = YsbQuery();
  auto lrb_oracle_q = LrbQuery();
  auto ysb_oracle_q = YsbQuery();
  Rng rng(56);
  TimeMicros now = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    now += MillisToMicros(rng.NextInt(0, 200));
    const int64_t budget = RandomBudget(rng);
    ExpectSameDelivery(lrb->DeliverUpTo(now, budget, *lrb_q),
                       OracleDeliver(*lrb_oracle, now, budget, *lrb_oracle_q));
    ExpectSameDelivery(ysb->DeliverUpTo(now, budget, *ysb_q),
                       OracleDeliver(*ysb_oracle, now, budget, *ysb_oracle_q));
    ExpectSameSourceQueues(*lrb_q, *lrb_oracle_q);
    ExpectSameSourceQueues(*ysb_q, *ysb_oracle_q);
    ClearSources(*lrb_q);
    ClearSources(*ysb_q);
    ClearSources(*lrb_oracle_q);
    ClearSources(*ysb_oracle_q);
  }
}

/// A random staged element: mostly data, some punctuation, and the
/// correction kinds wire v3 carries (keyed, but not kData).
Event RandomElement(Rng& rng, TimeMicros ingest_time, uint64_t tag) {
  switch (rng.NextInt(0, 11)) {
    case 0:
      return MakeWatermark(ingest_time - 5, ingest_time);
    case 1:
      return MakeLatencyMarker(ingest_time, ingest_time);
    case 2:
      return MakeRetractionEvent(ingest_time, ingest_time, tag, 2.0);
    case 3:
      return MakeUpdateEvent(ingest_time, ingest_time, tag, 3.0);
    default:
      return MakeDataEvent(ingest_time - 7, ingest_time, tag, 1.0,
                           static_cast<uint32_t>(rng.NextInt(8, 200)));
  }
}

TEST(FeedDeliveryTest, NetworkFeedMatchesPollAndPartition) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int num_streams = static_cast<int>(rng.NextInt(1, 3));
    // Three gateways staged identically: direct, base default, oracle.
    IngestGateway gateways[3];
    std::vector<uint32_t> ids;
    for (int s = 0; s < num_streams; ++s) {
      ids.push_back(static_cast<uint32_t>(20 + s));
      for (IngestGateway& g : gateways) {
        g.RegisterStream(ids.back(), IngestStreamConfig{});
      }
    }
    NetworkFeed direct(&gateways[0], ids);
    PollOnlyFeed fallback(std::make_unique<NetworkFeed>(&gateways[1], ids));
    NetworkFeed oracle(&gateways[2], ids);
    // LRB's three sources: stream i feeds source i.
    auto direct_q = LrbQuery();
    auto fallback_q = LrbQuery();
    auto oracle_q = LrbQuery();

    uint64_t tag = 0;
    std::vector<TimeMicros> clock(static_cast<size_t>(num_streams), 10);
    std::vector<uint64_t> seq(static_cast<size_t>(num_streams), 0);
    TimeMicros now = 0;
    for (int round = 0; round < 80; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Runs of up to 600 elements span several 256-element staging
      // chunks; ingest times advance by 0-2, so ties form within and
      // across streams.
      for (int s = 0; s < num_streams; ++s) {
        const size_t si = static_cast<size_t>(s);
        const int64_t n = rng.NextInt(0, 600);
        for (int64_t k = 0; k < n; ++k) {
          clock[si] += rng.NextInt(0, 2);
          const Event e = RandomElement(rng, clock[si], ++tag);
          ++seq[si];
          for (IngestGateway& g : gateways) {
            IngestGateway::Stream& stream = g.Resolve(ids[si]);
            ASSERT_EQ(g.AcceptSeq(stream, seq[si]),
                      IngestGateway::SeqDecision::kAccept);
            g.Deliver(stream, e);
          }
        }
        for (IngestGateway& g : gateways) g.Flush(g.Resolve(ids[si]));
      }
      now += rng.NextInt(0, 500);
      const int64_t budget = RandomBudget(rng);
      const EventFeed::Delivery want =
          OracleDeliver(oracle, now, budget, *oracle_q);
      ExpectSameDelivery(direct.DeliverUpTo(now, budget, *direct_q), want);
      ExpectSameDelivery(fallback.DeliverUpTo(now, budget, *fallback_q), want);
      ExpectSameSourceQueues(*direct_q, *oracle_q);
      ExpectSameSourceQueues(*fallback_q, *oracle_q);
      for (uint32_t id : ids) {
        // The replay cursor checkpoints record moves identically.
        EXPECT_EQ(gateways[0].delivered_seq(id), gateways[2].delivered_seq(id));
        EXPECT_EQ(gateways[1].delivered_seq(id), gateways[2].delivered_seq(id));
        EXPECT_EQ(gateways[0].staged_events(id), gateways[2].staged_events(id));
        EXPECT_EQ(gateways[0].staged_bytes(id), gateways[2].staged_bytes(id));
      }
      if (rng.NextInt(0, 2) == 0) {
        ClearSources(*direct_q);
        ClearSources(*fallback_q);
        ClearSources(*oracle_q);
      }
    }
    const TimeMicros end = std::numeric_limits<TimeMicros>::max();
    const std::vector<FeedElement> want = NextPoll(oracle, end);
    ExpectSamePoll(NextPoll(direct, end), want);
    ExpectSamePoll(NextPoll(fallback, end), want);
  }
}

}  // namespace
}  // namespace klink
