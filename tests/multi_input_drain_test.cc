// The run-at-a-time multi-input drain of ExecutionContext::RunQuery against
// the scalar earliest-ingest interleave it replaced, kept here as the
// oracle: each step pops the single input element with the earliest
// ingest time (lower stream index on ties), skipping inputs blocked on
// checkpoint-barrier alignment, and charges one cost per element.
//
// Random 2-4 input queries with ingest-time ties, barriers at random
// positions and random per-cycle budgets must give the same pop order,
// the same per-element virtual timestamps, the same barrier alignments,
// the same outputs and the same queue and memory accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/operators/join_operator.h"
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

/// Multi-input operator that logs every element it processes with its
/// input stream and virtual timestamp, and forwards data with the
/// timestamp folded into the value (so outputs depend on it too).
class RecordingOperator final : public Operator {
 public:
  struct Record {
    Event event;
    TimeMicros now;
  };

  explicit RecordingOperator(int inputs) : Operator("rec", 0.7, inputs) {}

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
    fwd.value += static_cast<double>(now);
    EmitData(fwd, out);
  }
};

/// Records how many elements the operator had processed at each
/// alignment: the snapshot point must not move.
class AlignmentLog final : public BarrierObserver {
 public:
  explicit AlignmentLog(const RecordingOperator* op) : op_(op) {}
  void OnBarrierAligned(Operator& /*op*/, uint64_t epoch) override {
    aligned.push_back({epoch, op_ == nullptr ? 0 : op_->records.size()});
  }
  std::vector<std::pair<uint64_t, size_t>> aligned;

 private:
  const RecordingOperator* op_;
};

/// sources (one per input, idle) -> middle (`inputs` inputs) -> sink.
std::unique_ptr<Query> MakeQuery(std::unique_ptr<Operator> middle) {
  const int inputs = middle->num_inputs();
  std::vector<std::unique_ptr<Operator>> ops;
  std::vector<Query::Edge> edges;
  for (int s = 0; s < inputs; ++s) {
    ops.push_back(
        std::make_unique<SourceOperator>("src" + std::to_string(s), 0.3));
    edges.push_back({inputs, s});
  }
  ops.push_back(std::move(middle));
  edges.push_back({inputs + 1, 0});
  ops.push_back(std::make_unique<SinkOperator>("sink", 0.2));
  edges.push_back({-1, 0});
  return std::make_unique<Query>(0, "drain", std::move(ops), std::move(edges));
}

/// The scalar drain the batched RunQuery replaced: per element, the
/// earliest-ingest unblocked input, one Pop, one cost.
double ScalarRunQuery(Query& query, double budget, TimeMicros cycle_start,
                      int64_t* processed, std::vector<Event>* scratch) {
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
      while (consumed + cost <= budget) {
        uint64_t min_epoch = op.last_barrier_epoch(0);
        for (int s = 1; s < op.num_inputs(); ++s) {
          min_epoch = std::min(min_epoch, op.last_barrier_epoch(s));
        }
        int best = -1;
        TimeMicros best_time = 0;
        for (int s = 0; s < op.num_inputs(); ++s) {
          if (op.input(s).empty()) continue;
          if (op.last_barrier_epoch(s) > min_epoch) continue;  // blocked
          const TimeMicros t = op.input(s).Front().ingest_time;
          if (best == -1 || t < best_time) {
            best = s;
            best_time = t;
          }
        }
        if (best == -1) break;
        Event e = op.input(best).Pop();
        e.stream = best;
        // A one-element batch is Process(e, cycle_start + consumed + cost),
        // and lets the recording operator log the element.
        BatchClock clock(cycle_start, consumed, cost);
        op.ProcessBatch(&e, 1, clock, emitter);
        consumed = clock.consumed_micros();
        ++*processed;
        progressed = true;
      }
      emitter.Flush();
      if (consumed + 0.01 > budget) {
        progressed = false;
        break;
      }
    }
  }
  return consumed;
}

/// Per-input element sequences: clustered ingest times (frequent ties
/// across inputs, some disorder within one), data with watermarks and
/// latency markers, and `barriers` checkpoint barriers per input at random
/// positions. With `long_run`, input 0 runs far ahead of the others so
/// single-input runs exceed the drain's batch cap.
std::vector<std::vector<Event>> MakeInputs(Rng& rng, int inputs, int per_input,
                                           int barriers, bool long_run) {
  std::vector<std::vector<Event>> seqs(static_cast<size_t>(inputs));
  for (int s = 0; s < inputs; ++s) {
    std::vector<Event>& seq = seqs[static_cast<size_t>(s)];
    TimeMicros t = long_run && s > 0 ? 1000000 : 0;
    TimeMicros event_time = 0;
    std::vector<int> barrier_at;
    for (int b = 0; b < barriers; ++b) {
      barrier_at.push_back(static_cast<int>(rng.NextInt(0, per_input - 1)));
    }
    std::sort(barrier_at.begin(), barrier_at.end());
    uint64_t epoch = 0;
    size_t next_barrier = 0;
    for (int i = 0; i < per_input; ++i) {
      t += rng.NextInt(0, 3);
      const TimeMicros ingest =
          rng.NextInt(0, 9) == 0 ? std::max<TimeMicros>(0, t - 5) : t;
      while (next_barrier < barrier_at.size() &&
             barrier_at[next_barrier] == i) {
        seq.push_back(MakeCheckpointBarrier(++epoch, ingest));
        ++next_barrier;
      }
      event_time += rng.NextInt(0, 40);
      const int64_t kind = rng.NextInt(0, 29);
      if (kind == 0) {
        seq.push_back(MakeWatermark(event_time, ingest));
      } else if (kind == 1) {
        seq.push_back(MakeLatencyMarker(event_time, ingest));
      } else {
        seq.push_back(MakeDataEvent(
            event_time, ingest, rng.NextUint64() % 20, rng.NextDouble(),
            static_cast<uint32_t>(rng.NextInt(16, 96))));
      }
    }
  }
  return seqs;
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
    for (int s = 0; s < oa.num_inputs(); ++s) {
      EXPECT_EQ(oa.input(s).size(), ob.input(s).size());
      EXPECT_EQ(oa.input(s).bytes(), ob.input(s).bytes());
      EXPECT_EQ(oa.input(s).data_count(), ob.input(s).data_count());
      EXPECT_EQ(oa.input(s).bytes(), oa.input(s).AuditRecomputeBytes());
    }
  }
  EXPECT_EQ(a.sink().results_received(), b.sink().results_received());
  EXPECT_EQ(a.sink().results_hash(), b.sink().results_hash());
}

/// Drains `batched` through ExecutionContext and `scalar` through the
/// oracle, cycle by cycle with random budgets, comparing after each.
void DrainBoth(Rng& rng, Query& batched, Query& scalar) {
  ExecutionContext context(/*slot=*/0);
  std::vector<Event> scratch;
  TimeMicros cycle_start = 0;
  for (int cycle = 0; cycle < 4000; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    const double budget = static_cast<double>(rng.NextInt(1, 400)) +
                          rng.NextDouble();
    context.BeginCycle(budget, 1.0, cycle_start);
    const double got = context.RunQuery(batched, 0, batched.num_operators());
    int64_t scalar_processed = 0;
    const double want =
        ScalarRunQuery(scalar, budget, cycle_start, &scalar_processed,
                       &scratch);
    ASSERT_EQ(got, want);  // exact: the same float additions
    ASSERT_EQ(context.cycle_processed_events(), scalar_processed);
    ExpectSameAccounting(batched, scalar);
    if (scalar_processed == 0) break;  // drained, or blocked for good
    cycle_start += kCycleLength;
  }
}

TEST(MultiInputDrainTest, MatchesScalarInterleave) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int inputs = static_cast<int>(rng.NextInt(2, 4));
    const bool long_run = seed % 4 == 0;
    const int barriers = static_cast<int>(rng.NextInt(0, 4));
    const auto seqs = MakeInputs(rng, inputs, 1500, barriers, long_run);

    auto batched_op = std::make_unique<RecordingOperator>(inputs);
    auto scalar_op = std::make_unique<RecordingOperator>(inputs);
    RecordingOperator* batched_rec = batched_op.get();
    RecordingOperator* scalar_rec = scalar_op.get();
    AlignmentLog batched_align(batched_rec);
    AlignmentLog scalar_align(scalar_rec);
    batched_op->SetBarrierObserver(&batched_align);
    scalar_op->SetBarrierObserver(&scalar_align);
    auto batched = MakeQuery(std::move(batched_op));
    auto scalar = MakeQuery(std::move(scalar_op));
    for (int s = 0; s < inputs; ++s) {
      for (const Event& e : seqs[static_cast<size_t>(s)]) {
        batched->op(inputs).input(s).Push(e);
        scalar->op(inputs).input(s).Push(e);
      }
    }

    Rng budgets(seed * 7919);
    DrainBoth(budgets, *batched, *scalar);

    ASSERT_EQ(batched_rec->records.size(), scalar_rec->records.size());
    for (size_t i = 0; i < scalar_rec->records.size(); ++i) {
      SCOPED_TRACE("element " + std::to_string(i));
      ExpectSameEvent(batched_rec->records[i].event,
                      scalar_rec->records[i].event);
      ASSERT_EQ(batched_rec->records[i].now, scalar_rec->records[i].now);
    }
    EXPECT_EQ(batched_align.aligned, scalar_align.aligned);
    if (barriers > 0) {
      EXPECT_FALSE(scalar_align.aligned.empty());
    }
  }
}

TEST(MultiInputDrainTest, WindowJoinMatchesScalarInterleave) {
  for (uint64_t seed = 101; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int inputs = static_cast<int>(rng.NextInt(2, 4));
    const int barriers = static_cast<int>(rng.NextInt(0, 3));
    const auto seqs = MakeInputs(rng, inputs, 2000, barriers, seed % 3 == 0);
    const auto make = [inputs] {
      return std::make_unique<WindowJoinOperator>(
          "join", 0.9, MakeTumblingWindow(500), inputs);
    };
    auto batched = MakeQuery(make());
    auto scalar = MakeQuery(make());
    for (int s = 0; s < inputs; ++s) {
      for (const Event& e : seqs[static_cast<size_t>(s)]) {
        batched->op(inputs).input(s).Push(e);
        scalar->op(inputs).input(s).Push(e);
      }
    }
    Rng budgets(seed * 104729);
    DrainBoth(budgets, *batched, *scalar);
    const auto& bj =
        static_cast<const WindowJoinOperator&>(batched->op(inputs));
    const auto& sj =
        static_cast<const WindowJoinOperator&>(scalar->op(inputs));
    EXPECT_EQ(bj.fired_panes(), sj.fired_panes());
    EXPECT_EQ(bj.emitted_joins(), sj.emitted_joins());
    EXPECT_EQ(bj.dropped_late_events(), sj.dropped_late_events());
    EXPECT_GT(sj.fired_panes(), 0);
  }
}

}  // namespace
}  // namespace klink
