// Scheduler scaling microbenchmark (google-benchmark): per-cycle policy
// evaluation cost at 100 / 1k / 10k deployed queries, full scan vs. the
// incrementally-maintained heap path, for FCFS and Klink.
//
// The snapshot models a cycle in which only the queries that executed
// last cycle changed: every iteration touches a fixed, core-sized handful
// of queries and staggers their deadlines/arrivals. An engine-built
// journal touches more than that in a multi-tenant run — every tenant
// fed that cycle is touched too (ingest-only entries, refreshed from the
// source queues; see QueryFabric::MarkIngested) — so this bench measures
// the evaluator's floor, not a real run's touched set. The scan variants
// feed the same mutated state with `incremental` unset, so the measured
// difference is the evaluator itself.
//
// Acceptance (recorded by tools/bench_scheduler_scale.sh into
// BENCH_scheduler_scale.json): the incremental per-cycle cost at 10k
// queries is <= 3x the 100-query cost — per-cycle work tracks the touched
// set, not the deployment size. The full-scan ratio is reported alongside
// as the O(n) contrast.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/klink/klink_policy.h"
#include "src/runtime/snapshot.h"
#include "src/sched/fcfs_policy.h"
#include "src/sched/selection.h"

namespace klink {
namespace {

constexpr int kSlots = 8;
/// Queries touched per cycle: the slots that ran. Real multi-tenant runs
/// also touch every fed tenant (ingest-only marks), which this leaves out.
constexpr int kTouchedPerCycle = 8;
constexpr DurationMicros kCycle = MillisToMicros(120);

QueryInfo MakeInfo(QueryId id, TimeMicros now) {
  QueryInfo info;
  info.id = id;
  info.queued_events = 1 + id % 7;
  // Staggered arrival order (FCFS key) and per-query costs.
  info.oldest_ingest = now + (id * 137) % 100000;
  info.drain_cost_micros = 50.0 + static_cast<double>(id % 900);
  info.unit_cost_micros = 5.0;
  info.output_rate = 1.0 + static_cast<double>(id % 13);
  // One windowed stream per query with a staggered upcoming deadline: the
  // cold-start-with-deadline class, which Klink's incremental index keeps
  // in its linear heap (no estimator history yet).
  StreamProgress sp;
  sp.upcoming_deadline = now + SecondsToMicros(1) + (id * 997) % 10000000;
  sp.deadline_period = SecondsToMicros(1);
  info.streams.push_back(sp);
  return info;
}

RuntimeSnapshot MakeSnapshot(int n, bool incremental) {
  RuntimeSnapshot snap;
  snap.now = 0;
  snap.incremental = incremental;
  for (int q = 0; q < n; ++q) {
    const QueryId id = q;
    snap.index[id] = static_cast<int32_t>(snap.queries.size());
    snap.queries.push_back(MakeInfo(id, /*now=*/0));
    if (incremental) snap.touched.push_back(id);
  }
  return snap;
}

/// One cycle's worth of state churn: advance the clock and refresh a
/// rotating, core-sized window of queries (new arrivals, new deadlines).
/// Untouched entries stay bitwise-identical, as engine snapshots promise.
void AdvanceCycle(RuntimeSnapshot* snap, int* cursor) {
  const int n = static_cast<int>(snap->queries.size());
  snap->now += kCycle;
  snap->touched.clear();
  snap->detached.clear();
  for (int i = 0; i < kTouchedPerCycle; ++i) {
    const int pos = (*cursor + i) % n;
    QueryInfo& info = snap->queries[static_cast<size_t>(pos)];
    info = MakeInfo(info.id, snap->now);
    if (snap->incremental) snap->touched.push_back(info.id);
  }
  *cursor = (*cursor + kTouchedPerCycle) % n;
  std::sort(snap->touched.begin(), snap->touched.end());
}

template <typename Policy>
void RunScalingBench(benchmark::State& state, bool incremental) {
  const int n = static_cast<int>(state.range(0));
  Policy policy;
  RuntimeSnapshot snap = MakeSnapshot(n, incremental);
  int cursor = 0;
  Selection out;
  // Prime: the first incremental cycle pays the one-time O(n) index build.
  policy.SelectQueries(snap, kSlots, &out);
  for (auto _ : state) {
    AdvanceCycle(&snap, &cursor);
    out.Clear();
    policy.SelectQueries(snap, kSlots, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["queries"] = n;
}

void BM_FcfsFullScan(benchmark::State& state) {
  RunScalingBench<FcfsPolicy>(state, /*incremental=*/false);
}
BENCHMARK(BM_FcfsFullScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FcfsIncremental(benchmark::State& state) {
  RunScalingBench<FcfsPolicy>(state, /*incremental=*/true);
}
BENCHMARK(BM_FcfsIncremental)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KlinkFullScan(benchmark::State& state) {
  RunScalingBench<KlinkPolicy>(state, /*incremental=*/false);
}
BENCHMARK(BM_KlinkFullScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KlinkIncremental(benchmark::State& state) {
  RunScalingBench<KlinkPolicy>(state, /*incremental=*/true);
}
BENCHMARK(BM_KlinkIncremental)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace klink

BENCHMARK_MAIN();
