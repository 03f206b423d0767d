// Microbenchmarks of the batched hot path (google-benchmark): ring-buffer
// queue transfer (scalar vs. batch), emitter routing (per-element push vs.
// buffered run flush), and the headline drain comparison — the pre-batching
// scalar drain loop, reimplemented here verbatim, against the engine's
// batched ExecutionContext::RunQuery over an identical pipeline and
// workload. The drain speedup is the acceptance number recorded in
// BENCH_hotpath.json (target >= 1.3x). The ingest path is timed too: 500
// LRB feeds delivering into their source queues, and the copying unary
// drain against the in-place one.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "src/event/stream_queue.h"
#include "src/net/delay_model.h"
#include "src/operators/aggregate_operator.h"
#include "src/operators/filter_operator.h"
#include "src/operators/map_operator.h"
#include "src/operators/source_operator.h"
#include "src/query/pipeline_builder.h"
#include "src/query/query.h"
#include "src/runtime/batch_emitter.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/execution_context.h"
#include "src/window/window_assigner.h"
#include "src/workloads/lrb.h"

namespace klink {
namespace {

constexpr int64_t kQueueBatch = 256;

std::vector<Event> MakeEvents(int64_t n) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    events.push_back(MakeDataEvent(i * 100, i * 100 + 50,
                                   static_cast<uint64_t>(i % 64), 1.0));
  }
  return events;
}

/// ---- queue transfer -------------------------------------------------

void BM_QueueScalarTransfer(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  StreamQueue q;
  for (auto _ : state) {
    for (const Event& e : events) q.Push(e);
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_QueueScalarTransfer);

void BM_QueueBatchTransfer(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  std::vector<Event> out(static_cast<size_t>(kQueueBatch));
  StreamQueue q;
  for (auto _ : state) {
    q.PushBatch(events.data(), kQueueBatch, /*stream=*/0);
    benchmark::DoNotOptimize(q.PopBatch(out.data(), kQueueBatch));
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_QueueBatchTransfer);

/// ---- emitter routing ------------------------------------------------

void BM_EmitterScalarRouting(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  StreamQueue downstream;
  std::vector<Event> drain(static_cast<size_t>(kQueueBatch));
  QueueEmitter emitter(&downstream, /*stream=*/0);
  for (auto _ : state) {
    for (const Event& e : events) emitter.Emit(e);
    downstream.PopBatch(drain.data(), kQueueBatch);
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_EmitterScalarRouting);

void BM_EmitterBatchRouting(benchmark::State& state) {
  const auto events = MakeEvents(kQueueBatch);
  StreamQueue downstream;
  std::vector<Event> drain(static_cast<size_t>(kQueueBatch));
  std::vector<Event> scratch;
  for (auto _ : state) {
    BatchEmitter emitter(&downstream, /*stream=*/0, &scratch);
    emitter.EmitRun(events.data(), kQueueBatch);
    emitter.Flush();
    downstream.PopBatch(drain.data(), kQueueBatch);
  }
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_EmitterBatchRouting);

/// ---- full drain: pre-batching scalar loop vs. batched RunQuery ------

constexpr int64_t kDrainEvents = 20000;
constexpr double kBudget = 1.0e9;  // ample: the drain empties the queues
constexpr TimeMicros kCycleStart = 0;

std::unique_ptr<Query> MakeDrainQuery() {
  PipelineBuilder b("drain");
  b.Source("src", 0.1)
      .Filter("f", 0.1, FilterOperator::HashPassRate(0.8), 0.8)
      .Map("m", 0.1, [](Event& e) { e.key %= 16; })
      .TumblingAggregate("agg", 0.2, SecondsToMicros(1),
                         AggregationKind::kSum)
      .Sink("out", 0.1);
  return b.Build(0);
}

void FillSource(Query& query, int64_t n) {
  StreamQueue& in = query.sources()[0]->input(0);
  TimeMicros t = 0;
  for (int64_t i = 0; i < n; ++i) {
    t += 100;
    if (i % 500 == 499) {
      in.Push(MakeWatermark(t, t));
    } else {
      in.Push(MakeDataEvent(t, t + 50, static_cast<uint64_t>(i % 256), 1.0));
    }
  }
}

/// The seed's drain loop (pre-batching ExecutionContext::RunQuery),
/// kept verbatim as the baseline: per-element pop, earliest-ingest input
/// scan, per-element Process, per-element routed push.
double ScalarRunQuery(Query& query, double budget_micros,
                      double cost_multiplier, TimeMicros cycle_start) {
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
      QueueEmitter emitter(downstream_queue, edge.downstream_stream);
      const double cost =
          std::max(0.01, op.cost_per_event() * cost_multiplier);
      while (consumed + cost <= budget_micros) {
        int best = -1;
        TimeMicros best_time = 0;
        for (int s = 0; s < op.num_inputs(); ++s) {
          if (op.input(s).empty()) continue;
          const TimeMicros t = op.input(s).Front().ingest_time;
          if (best == -1 || t < best_time) {
            best = s;
            best_time = t;
          }
        }
        if (best == -1) break;
        Event e = op.input(best).Pop();
        e.stream = best;
        consumed += cost;
        const TimeMicros now = cycle_start + static_cast<TimeMicros>(consumed);
        op.Process(e, now, emitter);
        progressed = true;
      }
      if (consumed + 0.01 > budget_micros) {
        progressed = false;
        break;
      }
    }
  }
  return consumed;
}

void BM_DrainScalar(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto query = MakeDrainQuery();
    FillSource(*query, kDrainEvents);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ScalarRunQuery(*query, kBudget, 1.0, kCycleStart));
  }
  state.SetItemsProcessed(state.iterations() * kDrainEvents);
}
BENCHMARK(BM_DrainScalar)->Unit(benchmark::kMillisecond);

void BM_DrainBatched(benchmark::State& state) {
  ExecutionContext context(/*slot=*/0);
  for (auto _ : state) {
    state.PauseTiming();
    auto query = MakeDrainQuery();
    FillSource(*query, kDrainEvents);
    context.BeginCycle(kBudget, 1.0, kCycleStart);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        context.RunQuery(*query, 0, query->num_operators()));
  }
  state.SetItemsProcessed(state.iterations() * kDrainEvents);
}
BENCHMARK(BM_DrainBatched)->Unit(benchmark::kMillisecond);

/// ---- ingest: feed to source queues ---------------------------------

/// lrb_q500's ingest: 500 LRB queries (3 sources each, 20 events/s per
/// substream, the paper's uniform delay), fed one 120 ms cycle per
/// iteration through EventFeed::DeliverUpTo (for a SyntheticFeed, the
/// base-class poll and per-source partition); the source queues are
/// emptied (untimed) after each cycle.
void BM_IngestToSource(benchmark::State& state) {
  constexpr int kQueries = 500;
  LrbConfig config;
  config.events_per_substream_per_second = 20;
  std::vector<std::unique_ptr<Query>> queries;
  std::vector<std::unique_ptr<EventFeed>> feeds;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(MakeLrbQuery(q, config));
    feeds.push_back(MakeLrbFeed(config, MakePaperUniformDelay(),
                                static_cast<uint64_t>(q + 1), 0));
  }
  TimeMicros now = 0;
  int64_t elements = 0;
  for (auto _ : state) {
    now += MillisToMicros(120);
    for (int q = 0; q < kQueries; ++q) {
      feeds[static_cast<size_t>(q)]->DeliverUpTo(
          now, std::numeric_limits<int64_t>::max(),
          *queries[static_cast<size_t>(q)]);
    }
    state.PauseTiming();
    for (auto& query : queries) {
      for (SourceOperator* src : query->sources()) {
        elements += src->input(0).size();
        src->input(0).Clear();
      }
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(elements);
}
BENCHMARK(BM_IngestToSource)->Unit(benchmark::kMicrosecond);

/// ---- unary drain: copying vs. in place ------------------------------

constexpr int64_t kUnaryEvents = 50000;

/// A source-heavy unary pipeline, where moving elements dominates:
/// source -> identity map -> sink.
std::unique_ptr<Query> MakeUnaryQuery() {
  PipelineBuilder b("unary");
  b.Source("src", 0.1).Map("m", 0.1).Sink("out", 0.1);
  return b.Build(0);
}

/// The unary drain before in-place reading: PopBatch up to 512 elements
/// into a scratch vector, re-stamp `stream`, process the copy, flush.
double CopyingRunQuery(Query& query, double budget_micros,
                       TimeMicros cycle_start, std::vector<Event>* batch,
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
        while (n < avail && replay + cost <= budget_micros) {
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
        progressed = true;
      }
      if (consumed + 0.01 > budget_micros) {
        progressed = false;
        break;
      }
    }
  }
  return consumed;
}

void BM_UnaryDrainCopying(benchmark::State& state) {
  std::vector<Event> batch;
  std::vector<Event> scratch;
  for (auto _ : state) {
    state.PauseTiming();
    auto query = MakeUnaryQuery();
    FillSource(*query, kUnaryEvents);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        CopyingRunQuery(*query, kBudget, kCycleStart, &batch, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * kUnaryEvents);
}
BENCHMARK(BM_UnaryDrainCopying)->Unit(benchmark::kMillisecond);

void BM_UnaryDrainInPlace(benchmark::State& state) {
  ExecutionContext context(/*slot=*/0);
  for (auto _ : state) {
    state.PauseTiming();
    auto query = MakeUnaryQuery();
    FillSource(*query, kUnaryEvents);
    context.BeginCycle(kBudget, 1.0, kCycleStart);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        context.RunQuery(*query, 0, query->num_operators()));
  }
  state.SetItemsProcessed(state.iterations() * kUnaryEvents);
}
BENCHMARK(BM_UnaryDrainInPlace)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace klink

BENCHMARK_MAIN();
