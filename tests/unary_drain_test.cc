// The in-place unary drain of ExecutionContext::RunQuery against the
// copying drain it replaced, kept here as the oracle: per batch, PopBatch
// up to 512 elements into a scratch vector, re-stamp `stream` to 0, run
// ProcessBatch on the copy, flush.
//
// The in-place drain reads the run at the front of the queue's front chunk,
// so its batches also end at 256-element chunk boundaries. Long inputs
// refilled between cycles (so runs cross chunk boundaries at every
// offset), random budgets that stop mid-chunk, and checkpoint barriers at
// random positions must give the same per-element virtual timestamps, the
// same barrier alignments, the same outputs and the same queue and memory
// accounting after every cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/operator.h"
#include "src/operators/sink_operator.h"
#include "src/operators/source_operator.h"
#include "src/query/query.h"
#include "src/runtime/batch_emitter.h"
#include "src/runtime/execution_context.h"
#include "src/window/window_assigner.h"

namespace klink {
namespace {

constexpr TimeMicros kCycleLength = 1000;

/// Unary operator that logs every element it processes with its virtual
/// timestamp, and forwards data with the timestamp folded into the value
/// (so outputs depend on it too).
class RecordingOperator final : public Operator {
 public:
  struct Record {
    Event event;
    TimeMicros now;
  };

  RecordingOperator() : Operator("rec", 0.7, 1) {}

  void ProcessBatch(const Event* events, int64_t n, BatchClock& clock,
                    Emitter& out) override {
    for (int64_t i = 0; i < n; ++i) {
      const TimeMicros now = clock.Next();
      records.push_back({events[i], now});
      Process(events[i], now, out);
    }
  }

  std::vector<Record> records;

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override {
    Event fwd = e;
    fwd.value += static_cast<double>(now % 1000);
    EmitData(fwd, out);
  }
};

/// Logs (epoch, elements the recorder had processed) at each alignment:
/// the snapshot point must not move.
class AlignmentLog final : public BarrierObserver {
 public:
  explicit AlignmentLog(const RecordingOperator* rec) : rec_(rec) {}
  void OnBarrierAligned(Operator& /*op*/, uint64_t epoch) override {
    aligned.emplace_back(epoch, rec_->records.size());
  }
  std::vector<std::pair<uint64_t, size_t>> aligned;

 private:
  const RecordingOperator* rec_;
};

/// source -> recorder -> tumbling sum -> sink, every operator unary.
struct Pipeline {
  std::unique_ptr<Query> query;
  RecordingOperator* rec = nullptr;
  std::unique_ptr<AlignmentLog> align;
};

Pipeline MakePipeline() {
  Pipeline p;
  auto rec = std::make_unique<RecordingOperator>();
  p.rec = rec.get();
  p.align = std::make_unique<AlignmentLog>(p.rec);
  rec->SetBarrierObserver(p.align.get());
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<SourceOperator>("src", 0.3));
  ops.push_back(std::move(rec));
  ops.push_back(std::make_unique<WindowAggregateOperator>(
      "agg", 0.9, MakeTumblingWindow(2000), AggregationKind::kSum));
  ops.push_back(std::make_unique<SinkOperator>("sink", 0.2));
  std::vector<Query::Edge> edges = {{1, 0}, {2, 0}, {3, 0}, {-1, 0}};
  p.query =
      std::make_unique<Query>(0, "unary", std::move(ops), std::move(edges));
  return p;
}

/// The copying unary drain the in-place one replaced.
double CopyingRunQuery(Query& query, double budget, TimeMicros cycle_start,
                       int64_t* processed, std::vector<Event>* batch,
                       std::vector<Event>* scratch) {
  constexpr int64_t kMaxBatch = 512;
  batch->resize(static_cast<size_t>(kMaxBatch));
  double consumed = 0.0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int i = 0; i < query.num_operators(); ++i) {
      Operator& op = query.op(i);
      const Query::Edge& edge = query.edge(i);
      StreamQueue* downstream_queue =
          edge.downstream == -1
              ? nullptr
              : &query.op(edge.downstream).input(edge.downstream_stream);
      BatchEmitter emitter(downstream_queue, edge.downstream_stream, scratch);
      const double cost = std::max(0.01, op.cost_per_event());
      StreamQueue& in = op.input(0);
      while (true) {
        const int64_t avail = std::min(in.size(), kMaxBatch);
        int64_t n = 0;
        double replay = consumed;
        while (n < avail && replay + cost <= budget) {
          replay += cost;
          ++n;
        }
        if (n == 0) break;
        const int64_t got = in.PopBatch(batch->data(), n);
        for (int64_t k = 0; k < got; ++k) {
          (*batch)[static_cast<size_t>(k)].stream = 0;
        }
        BatchClock clock(cycle_start, consumed, cost);
        op.ProcessBatch(batch->data(), got, clock, emitter);
        consumed = clock.consumed_micros();
        emitter.Flush();
        *processed += got;
        progressed = true;
      }
      if (consumed + 0.01 > budget) {
        progressed = false;
        break;
      }
    }
  }
  return consumed;
}

/// `n` source elements from `*t` on: data with some disorder, watermarks,
/// latency markers, and a checkpoint barrier now and then.
std::vector<Event> MakeInput(Rng& rng, int n, TimeMicros* t, uint64_t* epoch) {
  std::vector<Event> seq;
  for (int i = 0; i < n; ++i) {
    *t += rng.NextInt(0, 3);
    const int64_t kind = rng.NextInt(0, 99);
    if (kind < 2) {
      seq.push_back(MakeCheckpointBarrier(++*epoch, *t));
    } else if (kind < 5) {
      seq.push_back(MakeWatermark(*t - 100, *t));
    } else if (kind < 7) {
      seq.push_back(MakeLatencyMarker(*t, *t));
    } else {
      seq.push_back(MakeDataEvent(
          std::max<TimeMicros>(0, *t - rng.NextInt(0, 60)), *t,
          rng.NextUint64() % 20, rng.NextDouble(),
          static_cast<uint32_t>(rng.NextInt(16, 96))));
    }
  }
  return seq;
}

void ExpectSameEvent(const Event& a, const Event& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.ingest_time, b.ingest_time);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);  // exact: bitwise determinism
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
}

void ExpectSameAccounting(const Query& a, const Query& b) {
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());
  for (int i = 0; i < a.num_operators(); ++i) {
    const Operator& oa = a.op(i);
    const Operator& ob = b.op(i);
    EXPECT_EQ(oa.StateBytes(), ob.StateBytes());
    EXPECT_EQ(oa.processed_data_count(), ob.processed_data_count());
    EXPECT_EQ(oa.emitted_data_count(), ob.emitted_data_count());
    EXPECT_EQ(oa.forwarded_watermarks(), ob.forwarded_watermarks());
    EXPECT_EQ(oa.input(0).size(), ob.input(0).size());
    EXPECT_EQ(oa.input(0).bytes(), ob.input(0).bytes());
    EXPECT_EQ(oa.input(0).data_count(), ob.input(0).data_count());
    EXPECT_EQ(oa.input(0).bytes(), oa.input(0).AuditRecomputeBytes());
  }
  EXPECT_EQ(a.sink().results_received(), b.sink().results_received());
  EXPECT_EQ(a.sink().results_hash(), b.sink().results_hash());
}

TEST(UnaryDrainTest, InPlaceMatchesCopyingDrain) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Pipeline in_place = MakePipeline();
    Pipeline copying = MakePipeline();
    ExecutionContext context(/*slot=*/0);
    std::vector<Event> batch;
    std::vector<Event> scratch;
    TimeMicros t = 0;
    uint64_t epoch = 0;
    TimeMicros cycle_start = 0;
    int64_t total = 0;
    for (int cycle = 0; cycle < 300; ++cycle) {
      SCOPED_TRACE("cycle " + std::to_string(cycle));
      // Refill: up to 700 elements, so the queue's front and back sit at
      // every chunk offset over the run.
      const auto input =
          MakeInput(rng, static_cast<int>(rng.NextInt(0, 700)), &t, &epoch);
      for (const Event& e : input) {
        in_place.query->op(0).input(0).Push(e);
        copying.query->op(0).input(0).Push(e);
      }
      // Budgets from a few elements to a few chunks' worth, with a
      // fraction, so most cycles stop mid-chunk.
      const double budget =
          static_cast<double>(rng.NextInt(1, 900)) + rng.NextDouble();
      context.BeginCycle(budget, 1.0, cycle_start);
      const double got =
          context.RunQuery(*in_place.query, 0, in_place.query->num_operators());
      int64_t want_processed = 0;
      const double want = CopyingRunQuery(*copying.query, budget, cycle_start,
                                          &want_processed, &batch, &scratch);
      ASSERT_EQ(got, want);  // exact: the same float additions
      ASSERT_EQ(context.cycle_processed_events(), want_processed);
      ExpectSameAccounting(*in_place.query, *copying.query);
      total += want_processed;
      cycle_start += kCycleLength;
    }
    EXPECT_GT(total, 20000);
    ASSERT_EQ(in_place.rec->records.size(), copying.rec->records.size());
    for (size_t i = 0; i < copying.rec->records.size(); ++i) {
      SCOPED_TRACE("element " + std::to_string(i));
      ExpectSameEvent(in_place.rec->records[i].event,
                      copying.rec->records[i].event);
      ASSERT_EQ(in_place.rec->records[i].now, copying.rec->records[i].now);
    }
    EXPECT_EQ(in_place.align->aligned, copying.align->aligned);
    EXPECT_FALSE(copying.align->aligned.empty());
    EXPECT_GT(copying.query->sink().results_received(), 0);
  }
}

using UnaryDrainDeathTest = ::testing::Test;

TEST(UnaryDrainDeathTest, AuditRejectsNonZeroStreamOnUnaryInput) {
  // The in-place drain no longer re-stamps `stream`: under KLINK_AUDIT=1 a
  // unary input holding an element of another stream aborts the drain.
  EXPECT_DEATH(
      {
        setenv("KLINK_AUDIT", "1", 1);
        Pipeline p = MakePipeline();
        p.query->op(0).input(0).Push(
            MakeDataEvent(0, 0, /*key=*/1, 1.0, 64, /*stream=*/1));
        ExecutionContext context(/*slot=*/0);
        context.BeginCycle(1000.0, 1.0, 0);
        context.RunQuery(*p.query, 0, p.query->num_operators());
      },
      "KLINK_CHECK failed");
}

}  // namespace
}  // namespace klink
