// The determinism contract of the batched hot path: for every operator
// type, processing the same element sequence through ProcessBatch must be
// byte-identical to the scalar Process loop — same outputs (every field),
// same counters, same state bytes, same virtual-time consumption. The
// engine relies on this to keep batched results bit-identical to the
// pre-batching drain (see DESIGN.md "Hot path").

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/chained_operator.h"
#include "src/operators/count_window_operator.h"
#include "src/operators/filter_operator.h"
#include "src/operators/join_operator.h"
#include "src/operators/map_operator.h"
#include "src/operators/operator.h"
#include "src/operators/reorder_operator.h"
#include "src/operators/session_window_operator.h"
#include "src/operators/source_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/batch_emitter.h"
#include "src/runtime/engine.h"
#include "src/window/window_assigner.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

constexpr TimeMicros kCycleStart = 1000000;

/// A randomized stream mixing data events (ascending event time with
/// jitter), periodic watermarks, and latency markers — enough disorder to
/// exercise run detection, window firing, and late-event drops.
std::vector<Event> MakeSequence(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Event> events;
  TimeMicros t = 0;
  TimeMicros max_t = 0;
  for (int i = 0; i < n; ++i) {
    t += rng.NextInt(0, 2000);
    const int64_t kind = rng.NextInt(0, 19);
    if (kind == 0) {
      events.push_back(MakeWatermark(max_t, t + 500));
    } else if (kind == 1) {
      events.push_back(MakeLatencyMarker(t, t + 500));
    } else {
      const TimeMicros et =
          std::max<TimeMicros>(0, t - rng.NextInt(0, 5000));  // some disorder
      max_t = std::max(max_t, et);
      events.push_back(MakeDataEvent(et, t + rng.NextInt(100, 900),
                                     rng.NextUint64() % 50,
                                     rng.NextDouble() * 10.0,
                                     static_cast<uint32_t>(rng.NextInt(16, 128))));
    }
  }
  return events;
}

void ExpectSameEvents(const std::vector<Event>& a, const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("output " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].stream, b[i].stream);
    EXPECT_EQ(a[i].event_time, b[i].event_time);
    EXPECT_EQ(a[i].ingest_time, b[i].ingest_time);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);  // exact: bitwise determinism
    EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes);
    EXPECT_EQ(a[i].swm, b[i].swm);
  }
}

/// Runs the same sequence through a scalar-driven copy and a batch-driven
/// copy of the operator and asserts full equivalence.
void CheckEquivalence(Operator& scalar_op, Operator& batch_op,
                      const std::vector<Event>& events, double cost = 1.7) {
  VectorEmitter scalar_out;
  double consumed = 0.0;
  for (const Event& e : events) {
    consumed += cost;
    const TimeMicros now = kCycleStart + static_cast<TimeMicros>(consumed);
    scalar_op.Process(e, now, scalar_out);
  }

  VectorEmitter batch_out;
  BatchClock clock(kCycleStart, 0.0, cost);
  batch_op.ProcessBatch(events.data(), static_cast<int64_t>(events.size()),
                        clock, batch_out);

  EXPECT_EQ(clock.consumed_micros(), consumed);
  ExpectSameEvents(scalar_out.events, batch_out.events);
  EXPECT_EQ(scalar_op.processed_data_count(), batch_op.processed_data_count());
  EXPECT_EQ(scalar_op.emitted_data_count(), batch_op.emitted_data_count());
  EXPECT_EQ(scalar_op.StateBytes(), batch_op.StateBytes());
  EXPECT_EQ(scalar_op.forwarded_watermarks(), batch_op.forwarded_watermarks());
}

void CheckEquivalence(std::unique_ptr<Operator> scalar_op,
                      std::unique_ptr<Operator> batch_op,
                      const std::vector<Event>& events, double cost = 1.7) {
  CheckEquivalence(*scalar_op, *batch_op, events, cost);
}

TEST(BatchEquivalenceTest, IdentityMap) {
  const auto events = MakeSequence(1, 3000);
  CheckEquivalence(std::make_unique<MapOperator>("m", 1.0),
                   std::make_unique<MapOperator>("m", 1.0), events);
}

TEST(BatchEquivalenceTest, TransformingMap) {
  const auto events = MakeSequence(2, 3000);
  const auto transform = [](Event& e) {
    e.key = 0;
    e.value *= 2.0;
  };
  CheckEquivalence(std::make_unique<MapOperator>("m", 1.0, transform),
                   std::make_unique<MapOperator>("m", 1.0, transform), events);
}

TEST(BatchEquivalenceTest, Filter) {
  const auto events = MakeSequence(3, 3000);
  const auto keep = FilterOperator::HashPassRate(0.4);
  CheckEquivalence(std::make_unique<FilterOperator>("f", 1.0, keep, 0.4),
                   std::make_unique<FilterOperator>("f", 1.0, keep, 0.4),
                   events);
}

TEST(BatchEquivalenceTest, TumblingAggregate) {
  const auto events = MakeSequence(4, 5000);
  auto make = [] {
    return std::make_unique<WindowAggregateOperator>(
        "agg", 2.0, std::make_unique<TumblingWindowAssigner>(SecondsToMicros(2)),
        AggregationKind::kSum);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, SlidingAggregate) {
  const auto events = MakeSequence(5, 5000);
  auto make = [] {
    return std::make_unique<WindowAggregateOperator>(
        "agg", 2.0,
        std::make_unique<SlidingWindowAssigner>(SecondsToMicros(4),
                                                SecondsToMicros(1)),
        AggregationKind::kAverage);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, WindowJoin) {
  // Elements spread round-robin over three inputs, so each input's
  // watermarks advance the join's minimum and panes fire mid-batch.
  auto events = MakeSequence(11, 6000);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].stream = static_cast<int32_t>(i % 3);
  }
  auto make = [] {
    return std::make_unique<WindowJoinOperator>(
        "join", 1.3, MakeTumblingWindow(SecondsToMicros(1)), 3);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, CountWindow) {
  const auto events = MakeSequence(6, 4000);
  auto make = [] {
    return std::make_unique<CountWindowOperator>("cw", 1.5, 25,
                                                 AggregationKind::kMax);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, SessionWindow) {
  const auto events = MakeSequence(7, 4000);
  auto make = [] {
    return std::make_unique<SessionWindowOperator>(
        "sw", 1.5, MillisToMicros(800), AggregationKind::kCount);
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, Reorder) {
  const auto events = MakeSequence(8, 4000);
  CheckEquivalence(std::make_unique<ReorderOperator>("ro", 0.5),
                   std::make_unique<ReorderOperator>("ro", 0.5), events);
}

TEST(BatchEquivalenceTest, ChainedOperators) {
  const auto events = MakeSequence(9, 5000);
  auto make = [] {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<FilterOperator>(
        "f", 0.6, FilterOperator::HashPassRate(0.7), 0.7));
    ops.push_back(std::make_unique<MapOperator>(
        "m", 0.4, [](Event& e) { e.key %= 8; }));
    ops.push_back(std::make_unique<WindowAggregateOperator>(
        "agg", 2.0, std::make_unique<TumblingWindowAssigner>(SecondsToMicros(3)),
        AggregationKind::kCount));
    return std::make_unique<ChainedOperator>("chain", std::move(ops));
  };
  CheckEquivalence(make(), make(), events);
}

TEST(BatchEquivalenceTest, Source) {
  // Data runs interleaved with watermarks, latency markers and checkpoint
  // barriers: each data run is forwarded with one EmitDataRun, the rest
  // goes through Process, and the last data element's network delay must
  // survive exactly as the scalar loop's per-element overwrites leave it.
  auto events = MakeSequence(12, 4000);
  Rng rng(12);
  uint64_t epoch = 0;
  for (size_t i = 0; i < events.size(); i += 50 + rng.NextUint64() % 200) {
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(i),
                  MakeCheckpointBarrier(++epoch, events[i].ingest_time));
  }
  ASSERT_GT(epoch, 10u);
  SourceOperator scalar_src("src", 0.8);
  SourceOperator batch_src("src", 0.8);
  CheckEquivalence(scalar_src, batch_src, events);
  EXPECT_NE(batch_src.last_network_delay(), -1);
  EXPECT_EQ(scalar_src.last_network_delay(), batch_src.last_network_delay());
  StateWriter scalar_state;
  StateWriter batch_state;
  scalar_src.Serialize(scalar_state);
  batch_src.Serialize(batch_state);
  EXPECT_EQ(scalar_state.TakeBytes(), batch_state.TakeBytes());
}

TEST(BatchEquivalenceTest, BaseClassFallback) {
  // An operator without a ProcessBatch override runs the scalar loop via
  // the base class; equivalence is by construction but guards the default.
  class PassThrough final : public Operator {
   public:
    PassThrough() : Operator("pt", 1.0, 1) {}
  };
  const auto events = MakeSequence(10, 2000);
  CheckEquivalence(std::make_unique<PassThrough>(),
                   std::make_unique<PassThrough>(), events);
}

TEST(BatchEquivalenceTest, EmitterRunsAndSinglesKeepEmitOrder) {
  // BatchEmitter appends runs straight to the queue and buffers single
  // outputs until Flush (or the next run): whatever the mix, with runs
  // direct or buffered, the queue must end up as the one-at-a-time
  // QueueEmitter leaves it, stamped with the downstream stream index.
  const auto events = MakeSequence(13, 3000);
  Rng rng(13);
  for (const bool direct_runs : {true, false}) {
    SCOPED_TRACE(direct_runs ? "direct runs" : "buffered runs");
    StreamQueue want;
    StreamQueue got;
    QueueEmitter scalar(&want, /*stream=*/2);
    std::vector<Event> scratch;
    BatchEmitter batch(&got, /*stream=*/2, &scratch, direct_runs);
    for (size_t i = 0; i < events.size();) {
      const size_t n = std::min<size_t>(events.size() - i,
                                        static_cast<size_t>(rng.NextInt(1, 40)));
      if (rng.NextInt(0, 1) == 0) {
        batch.EmitRun(&events[i], static_cast<int64_t>(n));
      } else {
        for (size_t k = i; k < i + n; ++k) batch.Emit(events[k]);
      }
      for (size_t k = i; k < i + n; ++k) scalar.Emit(events[k]);
      if (rng.NextInt(0, 3) == 0) batch.Flush();
      i += n;
    }
    batch.Flush();
    std::vector<Event> want_events(static_cast<size_t>(want.size()));
    std::vector<Event> got_events(static_cast<size_t>(got.size()));
    EXPECT_EQ(got.bytes(), want.bytes());
    EXPECT_EQ(got.data_count(), want.data_count());
    want.PopBatch(want_events.data(), want.size());
    got.PopBatch(got_events.data(), got.size());
    ExpectSameEvents(want_events, got_events);
  }
}

TEST(BatchEquivalenceTest, QueryMemoryCounterStaysExact) {
  // After a full engine run, each query's incremental memory counter must
  // equal the recomputed sum over operators: every queue and state delta
  // was accounted exactly once.
  EngineConfig config;
  config.num_cores = 2;
  Engine engine(config, std::make_unique<KlinkPolicy>());

  PipelineBuilder b("eq");
  b.Source("src", 1.0)
      .Filter("f", 0.8, FilterOperator::HashPassRate(0.5), 0.5)
      .Map("m", 0.5)
      .TumblingAggregate("agg", 2.0, SecondsToMicros(2),
                         AggregationKind::kCount)
      .Sink("out", 0.5);

  SourceSpec spec;
  spec.events_per_second = 4000;
  spec.key_cardinality = 30;
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, MakePaperUniformDelay(), /*seed=*/7, 0);
  engine.AddQuery(b.Build(0), std::move(feed));
  engine.RunFor(SecondsToMicros(20));

  const Query& q = engine.query(0);
  int64_t recomputed = 0;
  for (int i = 0; i < q.num_operators(); ++i) {
    recomputed += q.op(i).MemoryBytes();
  }
  EXPECT_EQ(q.MemoryBytes(), recomputed);
  EXPECT_GE(q.MemoryBytes(), 0);
}

}  // namespace
}  // namespace klink
