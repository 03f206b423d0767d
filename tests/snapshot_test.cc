#include "src/runtime/snapshot.h"

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/harness/experiment.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/reshard.h"
#include "src/sched/policy.h"
#include "src/workloads/lrb.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

std::unique_ptr<Query> BuildQuery() {
  PipelineBuilder b("q");
  b.Source("src", 10.0)
      .Filter("f", 20.0, [](const Event& e) { return e.key % 2 == 0; }, 0.5)
      .TumblingAggregate("w", 30.0, 1000, AggregationKind::kCount)
      .Sink("out", 5.0);
  return b.Build(0);
}

TEST(SnapshotTest, PerOperatorArrays) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  ASSERT_EQ(info.op_cost.size(), 4u);
  EXPECT_DOUBLE_EQ(info.op_cost[0], 10.0);
  EXPECT_DOUBLE_EQ(info.op_cost[2], 30.0);
  EXPECT_EQ(info.op_windowed[2], 1);
  EXPECT_EQ(info.op_windowed[1], 0);
  EXPECT_EQ(info.op_partial[2], 1);
}

TEST(SnapshotTest, DrainCostUsesSelectivityDiscountedPaths) {
  auto q = BuildQuery();
  // 10 events at the source: each costs 10 (src) + 20 (filter) +
  // 0.5 * (30 (agg) + 0.05 * 5 (sink)) with hint selectivities.
  for (int i = 0; i < 10; ++i) {
    q->op(0).input(0).Push(MakeDataEvent(i, i, 0, 0.0));
  }
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  const double per_event = 10.0 + 20.0 + 0.5 * (30.0 + 0.05 * 5.0);
  EXPECT_NEAR(info.drain_cost_micros, 10.0 * per_event, 1e-9);
  EXPECT_EQ(info.queued_events, 10);
  EXPECT_NEAR(info.unit_cost_micros, per_event, 1e-9);
}

TEST(SnapshotTest, DrainCostCountsMidPipelineQueues) {
  auto q = BuildQuery();
  q->op(2).input(0).Push(MakeDataEvent(0, 0, 0, 0.0));  // at the window
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  EXPECT_NEAR(info.drain_cost_micros, 30.0 + 0.05 * 5.0, 1e-9);
}

TEST(SnapshotTest, OldestIngestAcrossOperators) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  EXPECT_EQ(info.oldest_ingest, kNoTime);
  q->op(1).input(0).Push(MakeDataEvent(0, 500, 0, 0.0));
  q->op(0).input(0).Push(MakeDataEvent(0, 900, 0, 0.0));
  CollectQueryInfo(*q, 0, &info);
  EXPECT_EQ(info.oldest_ingest, 500);
}

TEST(SnapshotTest, StreamProgressExtracted) {
  auto q = BuildQuery();
  VectorEmitter sinkhole;
  q->op(2).Process(MakeDataEvent(100, 150, 2, 1.0), 0, sinkhole);
  q->op(2).Process(MakeWatermark(1000, 1040), 0, sinkhole);
  QueryInfo info;
  CollectQueryInfo(*q, 2000, &info);
  ASSERT_EQ(info.streams.size(), 1u);
  const StreamProgress& p = info.streams[0];
  EXPECT_EQ(p.op_index, 2);
  EXPECT_EQ(p.stream, 0);
  EXPECT_EQ(p.epoch, 1);
  EXPECT_EQ(p.last_swept_deadline, 1000);
  EXPECT_EQ(p.last_sweep_ingest, 1040);
  EXPECT_EQ(p.deadline_period, 1000);
  EXPECT_EQ(p.upcoming_deadline, 2000);
}

TEST(SnapshotTest, OutputRateUsesDeclaredSelectivities) {
  auto q = BuildQuery();
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  // Product of hints (filter 0.5, agg 0.05) over the total cost; the sink
  // is excluded from the product.
  const double expected = (1.0 * 0.5 * 0.05) / (10.0 + 20.0 + 30.0 + 5.0);
  EXPECT_NEAR(info.output_rate, expected, 1e-12);
}

TEST(SnapshotTest, WindowlessQueryHasNoStreams) {
  PipelineBuilder b("stateless");
  b.Source("s", 1.0).Map("m", 1.0).Sink("out", 1.0);
  auto q = b.Build(0);
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  EXPECT_TRUE(info.streams.empty());
  EXPECT_EQ(info.upcoming_deadline, kNoTime);
}

// ---------------------------------------------------------------------------
// Ingest refresh: RefreshIngestedQueryInfo after source-queue appends must
// produce exactly what a full CollectQueryInfo would.

void PushAtSource(Query& q, int source, TimeMicros ingest_time) {
  q.sources()[static_cast<size_t>(source)]->input(0).Push(
      MakeDataEvent(ingest_time, ingest_time, /*key=*/ingest_time % 7, 1.0));
}

TEST(SnapshotRefreshTest, MatchesFullCollectAfterIngest) {
  auto q = BuildQuery();
  q->op(2).input(0).Push(MakeDataEvent(0, 40, 0, 0.0));  // mid-pipeline
  QueryInfo info;
  CollectQueryInfo(*q, 0, &info);
  QueryInfo fresh;
  // Empty source queue at the last collect: the refresh must read its front.
  PushAtSource(*q, 0, 900);
  PushAtSource(*q, 0, 950);
  RefreshIngestedQueryInfo(*q, &info);
  CollectQueryInfo(*q, 0, &fresh);
  EXPECT_EQ(FirstQueryInfoMismatch(info, fresh), "");
  EXPECT_EQ(info.queued_events, 3);
  EXPECT_EQ(info.lanes[0].oldest_ingest, 40);
  // Non-empty source queue: appends leave its front where it was.
  PushAtSource(*q, 0, 1000);
  RefreshIngestedQueryInfo(*q, &info);
  CollectQueryInfo(*q, 0, &fresh);
  EXPECT_EQ(FirstQueryInfoMismatch(info, fresh), "");
  EXPECT_EQ(info.op_oldest[0], 900);
  EXPECT_EQ(info.memory_bytes, q->MemoryBytes());
}

TEST(SnapshotRefreshTest, MatchesFullCollectForJoinAndShardedQueries) {
  LrbConfig lrb;
  auto join = MakeLrbQuery(0, lrb);
  ASSERT_EQ(join->sources().size(), 3u);
  YsbConfig ysb;
  ysb.shards = 4;
  ysb.max_shards = 8;
  auto sharded = MakeYsbQuery(1, ysb);
  ASSERT_TRUE(sharded->sharded());
  for (Query* q : {join.get(), sharded.get()}) {
    QueryInfo info;
    QueryInfo fresh;
    CollectQueryInfo(*q, 0, &info);
    for (int round = 0; round < 3; ++round) {
      for (size_t s = 0; s < q->sources().size(); ++s) {
        if ((round + static_cast<int>(s)) % 2 == 0) continue;  // stay empty
        PushAtSource(*q, static_cast<int>(s), 100 * round + 10 * s + 1);
      }
      RefreshIngestedQueryInfo(*q, &info);
      CollectQueryInfo(*q, 0, &fresh);
      EXPECT_EQ(FirstQueryInfoMismatch(info, fresh), "") << q->name();
    }
    EXPECT_GT(info.queued_events, 0);
  }
}

TEST(SnapshotRefreshTest, MismatchNamesTheFirstDifferingField) {
  auto q = BuildQuery();
  QueryInfo a;
  CollectQueryInfo(*q, 0, &a);
  QueryInfo b = a;
  EXPECT_EQ(FirstQueryInfoMismatch(a, b), "");
  PushAtSource(*q, 0, 500);
  CollectQueryInfo(*q, 0, &b);
  // A stale entry: the aggregate is declared before the per-op arrays.
  EXPECT_EQ(FirstQueryInfoMismatch(a, b), "queued_events");
  a = b;
  a.lanes[0].oldest_ingest = kNoTime;
  EXPECT_EQ(FirstQueryInfoMismatch(a, b), "lanes[0].oldest_ingest");
  a = b;
  a.op_path_cost[3] = 0.0;
  b.op_path_cost[3] = -0.0;  // equal values, different bits
  EXPECT_EQ(FirstQueryInfoMismatch(a, b), "op_path_cost[3]");
}

// ---------------------------------------------------------------------------
// Engine equivalence: every cycle, every entry of the engine-maintained
// snapshot (full re-collects, ingest refreshes and untouched entries alike)
// must equal a full re-collect of its query, across joins, sharding with a
// live re-shard, checkpoint barriers, allowed lateness and tenant churn —
// and results must stay byte-identical across executor backends.

struct CheckStats {
  int64_t cycles = 0;
  int64_t entries_checked = 0;
  /// Touched entries of queries that did not execute in the previous
  /// cycle: ingest refreshes, outside attach/barrier/re-shard cycles.
  int64_t touched_unexecuted = 0;
  int64_t touched_unexecuted_sharded = 0;
  std::string first_mismatch;
};

/// Wraps a policy: before delegating, re-collects every snapshot entry and
/// records the first field that differs from the engine-built one.
class RecollectCheckingPolicy final : public SchedulingPolicy {
 public:
  RecollectCheckingPolicy(std::unique_ptr<SchedulingPolicy> inner,
                          CheckStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }

  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override {
    ++stats_->cycles;
    for (const QueryInfo& info : snapshot.queries) {
      CollectQueryInfo(*info.query, snapshot.now, &fresh_);
      const std::string field = FirstQueryInfoMismatch(info, fresh_);
      if (!field.empty() && stats_->first_mismatch.empty()) {
        stats_->first_mismatch = std::string("query ")
                                     .append(std::to_string(info.id))
                                     .append(" at t=")
                                     .append(std::to_string(snapshot.now))
                                     .append(": ")
                                     .append(field);
      }
      ++stats_->entries_checked;
    }
    for (const QueryId id : snapshot.touched) {
      if (executed_.count(id) != 0) continue;
      ++stats_->touched_unexecuted;
      if (snapshot.Find(id)->lanes.size() > 1) {
        ++stats_->touched_unexecuted_sharded;
      }
    }
    inner_->SelectQueries(snapshot, slots, out);
    executed_.clear();
    for (const SlotAssignment& slot : *out) executed_.insert(slot.query);
  }

  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override {
    return inner_->EvaluationCostMicros(snapshot);
  }

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
  CheckStats* stats_;
  QueryInfo fresh_;
  std::set<QueryId> executed_;
};

struct RunResult {
  std::vector<uint64_t> hashes;
  int64_t processed = 0;
  CheckStats stats;
};

std::unique_ptr<Engine> CheckedEngine(ExecutorKind executor, int cores,
                                      PolicyKind policy, CheckStats* stats) {
  EngineConfig config;
  config.num_cores = cores;
  config.executor = executor;
  return std::make_unique<Engine>(
      config, std::make_unique<RecollectCheckingPolicy>(
                  MakePolicy(policy, KlinkPolicyConfig{}, /*seed=*/5), stats));
}

RunResult Finish(const Engine& engine, const std::vector<QueryId>& ids,
                 const CheckStats& stats) {
  RunResult r;
  for (const QueryId id : ids) {
    r.hashes.push_back(engine.query(id).sink().results_hash());
  }
  r.processed = engine.metrics().processed_events();
  r.stats = stats;
  return r;
}

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "klink_snapshot_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = mkdtemp(buf.data());
  KLINK_CHECK(dir != nullptr);
  return std::string(dir);
}

std::unique_ptr<DelayModel> Uniform() {
  return std::make_unique<UniformDelay>(0, MillisToMicros(40));
}

RunResult LrbJoinRun(ExecutorKind executor) {
  CheckStats stats;
  auto engine = CheckedEngine(executor, 2, PolicyKind::kKlink, &stats);
  std::vector<QueryId> ids;
  for (int q = 0; q < 6; ++q) {
    LrbConfig cfg;
    cfg.events_per_substream_per_second = 150.0 + 40.0 * q;
    cfg.window_offset = MillisToMicros(170 * q);
    ids.push_back(engine->AddQuery(MakeLrbQuery(q, cfg),
                                   MakeLrbFeed(cfg, Uniform(), 30 + q, 0)));
  }
  engine->RunFor(SecondsToMicros(8));
  return Finish(*engine, ids, stats);
}

RunResult ShardedReshardRun(ExecutorKind executor) {
  CheckStats stats;
  auto engine = CheckedEngine(executor, 2, PolicyKind::kFcfs, &stats);
  CheckpointConfig cc;
  cc.dir = TempDir();
  cc.interval = MillisToMicros(500);
  CheckpointCoordinator coordinator(cc);
  std::vector<QueryId> ids;
  for (int q = 0; q < 4; ++q) {
    YsbConfig cfg;
    cfg.events_per_second = 600.0 + 150.0 * q;
    cfg.window_size = SecondsToMicros(1);
    cfg.window_offset = MillisToMicros(230 * q);
    if (q < 2) {
      cfg.shards = 4;
      cfg.max_shards = 8;
    }
    ids.push_back(engine->AddQuery(MakeYsbQuery(q, cfg),
                                   MakeYsbFeed(cfg, Uniform(), 40 + q, 0)));
    coordinator.RegisterQuery(&engine->query(ids.back()), {}, nullptr);
  }
  engine->SetCheckpointCoordinator(&coordinator);
  ReshardController resharder(engine.get());
  engine->SetReshardController(&resharder);
  engine->RunFor(SecondsToMicros(2));
  EXPECT_TRUE(resharder.RequestReshard(ids[0], 8));
  EXPECT_TRUE(resharder.RequestReshard(ids[1], 2));
  engine->RunFor(SecondsToMicros(4));
  EXPECT_EQ(resharder.completed_reshards(), 2);
  RunResult result = Finish(*engine, ids, stats);
  std::filesystem::remove_all(cc.dir);
  return result;
}

RunResult CheckpointRun(ExecutorKind executor) {
  CheckStats stats;
  auto engine = CheckedEngine(executor, 2, PolicyKind::kFcfs, &stats);
  CheckpointConfig cc;
  cc.dir = TempDir();
  cc.interval = MillisToMicros(360);
  CheckpointCoordinator coordinator(cc);
  std::vector<QueryId> ids;
  for (int q = 0; q < 5; ++q) {
    YsbConfig cfg;
    cfg.events_per_second = 500.0 + 200.0 * q;
    cfg.window_size = SecondsToMicros(1);
    ids.push_back(engine->AddQuery(MakeYsbQuery(q, cfg),
                                   MakeYsbFeed(cfg, Uniform(), 50 + q, 0)));
    coordinator.RegisterQuery(&engine->query(ids.back()), {}, nullptr);
  }
  engine->SetCheckpointCoordinator(&coordinator);
  engine->RunFor(SecondsToMicros(5));
  EXPECT_GE(coordinator.last_durable_epoch(), 2u);
  RunResult result = Finish(*engine, ids, stats);
  std::filesystem::remove_all(cc.dir);
  return result;
}

RunResult LatenessRun(ExecutorKind executor) {
  CheckStats stats;
  auto engine = CheckedEngine(executor, 2, PolicyKind::kKlink, &stats);
  std::vector<QueryId> ids;
  for (int q = 0; q < 5; ++q) {
    YsbConfig cfg;
    cfg.events_per_second = 700.0 + 100.0 * q;
    cfg.window_size = SecondsToMicros(1);
    cfg.watermark_lag = MillisToMicros(40);
    cfg.allowed_lateness = MillisToMicros(300);
    ids.push_back(engine->AddQuery(
        MakeYsbQuery(q, cfg),
        MakeYsbFeed(cfg,
                    std::make_unique<ParetoDelay>(0, 1.3, MillisToMicros(25)),
                    60 + q, 0)));
  }
  engine->RunFor(SecondsToMicros(6));
  engine->RefreshLateEventMetrics();
  int64_t late = 0;
  for (const QueryId id : ids) {
    late += engine->metrics().late_by_query().at(id).late_accepted;
  }
  EXPECT_GT(late, 0);  // panes really were retained and corrected
  return Finish(*engine, ids, stats);
}

std::unique_ptr<Query> CountQuery(QueryId id, DurationMicros window) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, window, AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(std::vector<SourceSpec>{spec},
                                         Uniform(), seed, 0);
}

RunResult ChurnRun(ExecutorKind executor) {
  CheckStats stats;
  auto engine = CheckedEngine(executor, 2, PolicyKind::kKlink, &stats);
  std::vector<QueryId> ids;
  for (int q = 0; q < 6; ++q) {
    ids.push_back(engine->AddQuery(
        CountQuery(q, SecondsToMicros(1) + MillisToMicros(100 * q)),
        SteadyFeed(3000.0 + 1000.0 * q, 70 + q)));
  }
  engine->RunFor(SecondsToMicros(2));
  engine->DetachQuery(ids[1]);
  engine->RemoveQuery(ids[2]);
  ids.push_back(engine->AddQuery(CountQuery(6, SecondsToMicros(1)),
                                 SteadyFeed(4000, 80)));
  engine->RunFor(SecondsToMicros(2));
  engine->DetachQuery(ids[3]);
  ids.push_back(engine->AddQuery(CountQuery(7, SecondsToMicros(1)),
                                 SteadyFeed(5000, 81)));
  engine->RunFor(SecondsToMicros(2));
  EXPECT_FALSE(engine->IsActive(ids[2]));
  return Finish(*engine, ids, stats);
}

struct EquivalenceCase {
  const char* name;
  RunResult (*run)(ExecutorKind);
  bool sharded;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

class SnapshotEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(SnapshotEquivalenceTest, EveryEntryEqualsFullRecollectEveryCycle) {
  const EquivalenceCase& c = GetParam();
  const RunResult seq = c.run(ExecutorKind::kSequential);
  const RunResult thr = c.run(ExecutorKind::kThreads);
  for (const RunResult* r : {&seq, &thr}) {
    EXPECT_EQ(r->stats.first_mismatch, "");
    EXPECT_GT(r->stats.cycles, 30);
    EXPECT_GE(r->stats.entries_checked, 4 * r->stats.cycles);
    EXPECT_GT(r->stats.touched_unexecuted, r->stats.cycles);
    if (c.sharded) {
      EXPECT_GT(r->stats.touched_unexecuted_sharded, 0);
    }
    EXPECT_GT(r->processed, 1000);
  }
  EXPECT_EQ(seq.hashes, thr.hashes);
  EXPECT_EQ(seq.processed, thr.processed);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SnapshotEquivalenceTest,
    ::testing::Values(EquivalenceCase{"LrbJoin", &LrbJoinRun, false},
                      EquivalenceCase{"ShardedReshard", &ShardedReshardRun,
                                      true},
                      EquivalenceCase{"CheckpointBarriers", &CheckpointRun,
                                      false},
                      EquivalenceCase{"AllowedLateness", &LatenessRun, false},
                      EquivalenceCase{"Churn", &ChurnRun, false}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace klink
