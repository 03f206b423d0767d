// Distributed snapshot semantics (Sec. 4): each node's policy must see
// fresh local state, stale-but-present remote state, and nothing about
// queries with no local presence. Verified with a capturing policy
// installed on every node.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dist/dist_engine.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/snapshot.h"
#include "src/workloads/workload.h"

namespace klink {
namespace {

/// Round-robin-ish policy that records every snapshot it is handed. With
/// `mismatches` set it also compares each entry against a full
/// CollectQueryInfo of the same query at selection time (the same cycle)
/// and records "query <id> at <now>: <first differing field>".
class CapturingPolicy final : public SchedulingPolicy {
 public:
  explicit CapturingPolicy(std::vector<RuntimeSnapshot>* log,
                           std::vector<std::string>* mismatches = nullptr)
      : log_(log), mismatches_(mismatches) {}

  std::string name() const override { return "capture"; }

  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override {
    log_->push_back(snapshot);  // QueryInfo::query pointers stay valid
    if (mismatches_ != nullptr) {
      for (const QueryInfo& info : snapshot.queries) {
        QueryInfo full;
        CollectQueryInfo(*info.query, snapshot.now, &full);
        const std::string field = FirstQueryInfoMismatch(info, full);
        if (field.empty()) continue;
        mismatches_->push_back("query " + std::to_string(info.id) + " at " +
                               std::to_string(snapshot.now) + ": " + field);
      }
    }
    SelectTopReadyQueries(
        snapshot, slots,
        [](const QueryInfo& a, const QueryInfo& b) { return a.id < b.id; },
        out);
  }

 private:
  std::vector<RuntimeSnapshot>* log_;
  std::vector<std::string>* mismatches_;
};

std::unique_ptr<Query> WindowQuery(QueryId id) {
  PipelineBuilder b("q");
  b.Source("src", 5.0)
      .Map("m", 5.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 1.0);
  return b.Build(id);
}

std::unique_ptr<EventFeed> Feed(uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = 500;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(MillisToMicros(10)), seed, 0);
}

TEST(DistSnapshotTest, LocalOnlyQueriesVisibleOnOwningNode) {
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kLocal;
  std::map<NodeId, std::vector<RuntimeSnapshot>> logs;
  DistEngine engine(config, [&logs](NodeId node) {
    return std::make_unique<CapturingPolicy>(&logs[node]);
  });
  // Query 0 lands on node 0, query 1 on node 1 (round-robin by id).
  engine.AddQuery(WindowQuery(0), Feed(1));
  engine.AddQuery(WindowQuery(1), Feed(2));
  engine.RunUntil(SecondsToMicros(5));

  ASSERT_FALSE(logs[0].empty());
  ASSERT_FALSE(logs[1].empty());
  for (const RuntimeSnapshot& snap : logs[0]) {
    for (const QueryInfo& info : snap.queries) EXPECT_EQ(info.id, 0);
  }
  for (const RuntimeSnapshot& snap : logs[1]) {
    for (const QueryInfo& info : snap.queries) EXPECT_EQ(info.id, 1);
  }
}

TEST(DistSnapshotTest, LocalNodeViewIsTheFullCollect) {
  // Under kLocal a node hosts whole queries, so its view of each one must
  // be the single-node CollectQueryInfo bit for bit — every field, HR's
  // output_rate and the lanes included.
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kLocal;
  std::map<NodeId, std::vector<RuntimeSnapshot>> logs;
  std::vector<std::string> mismatches;
  DistEngine engine(config, [&](NodeId node) {
    return std::make_unique<CapturingPolicy>(&logs[node], &mismatches);
  });
  for (QueryId q = 0; q < 4; ++q) engine.AddQuery(WindowQuery(q), Feed(10 + q));
  engine.RunUntil(SecondsToMicros(6));

  size_t entries = 0;
  for (NodeId n : {0, 1}) {
    for (const RuntimeSnapshot& snap : logs[n]) entries += snap.queries.size();
  }
  EXPECT_GT(entries, 0u);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << entries
      << " entries differ; first: " << mismatches.front();
}

TEST(DistSnapshotTest, SplitQueryVisibleOnAllHostingNodes) {
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kSplit;
  std::map<NodeId, std::vector<RuntimeSnapshot>> logs;
  DistEngine engine(config, [&logs](NodeId node) {
    return std::make_unique<CapturingPolicy>(&logs[node]);
  });
  engine.AddQuery(WindowQuery(0), Feed(3));
  engine.RunUntil(SecondsToMicros(5));
  // Both nodes host a segment, so both see query 0.
  for (NodeId n : {0, 1}) {
    bool seen = false;
    for (const RuntimeSnapshot& snap : logs[n]) {
      for (const QueryInfo& info : snap.queries) seen |= info.id == 0;
    }
    EXPECT_TRUE(seen) << "node " << n;
  }
}

TEST(DistSnapshotTest, UpstreamNodeLearnsWindowDeadlineViaForwarding) {
  // With kSplit, the window operator sits on node 1; node 0 (sources)
  // must still see an upcoming deadline and the window's stream progress
  // through the forwarding channel (Sec. 4's Fig. 5 scenario).
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kSplit;
  config.link_latency = MillisToMicros(2);
  std::map<NodeId, std::vector<RuntimeSnapshot>> logs;
  DistEngine engine(config, [&logs](NodeId node) {
    return std::make_unique<CapturingPolicy>(&logs[node]);
  });
  engine.AddQuery(WindowQuery(0), Feed(4));
  // The window (op index 2 of 4) lands on node 1 under a 2-way split.
  ASSERT_EQ(engine.placement(0)[2], 1);
  engine.RunUntil(SecondsToMicros(6));

  bool deadline_seen = false;
  bool remote_stream_seen = false;
  for (const RuntimeSnapshot& snap : logs[0]) {
    for (const QueryInfo& info : snap.queries) {
      if (info.upcoming_deadline != kNoTime) deadline_seen = true;
      for (const StreamProgress& p : info.streams) {
        if (p.op_index == 2) remote_stream_seen = true;
      }
    }
  }
  EXPECT_TRUE(deadline_seen);
  EXPECT_TRUE(remote_stream_seen);
}

TEST(DistSnapshotTest, LocalQueueCountsExcludeRemoteOperators) {
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kSplit;
  std::map<NodeId, std::vector<RuntimeSnapshot>> logs;
  DistEngine engine(config, [&logs](NodeId node) {
    return std::make_unique<CapturingPolicy>(&logs[node]);
  });
  engine.AddQuery(WindowQuery(0), Feed(5));
  engine.RunUntil(SecondsToMicros(6));
  const auto& placement = engine.placement(0);
  for (NodeId n : {0, 1}) {
    for (const RuntimeSnapshot& snap : logs[n]) {
      for (const QueryInfo& info : snap.queries) {
        for (size_t i = 0; i < info.op_queued.size(); ++i) {
          if (placement[i] != n) {
            EXPECT_EQ(info.op_queued[i], 0)
                << "node " << n << " saw remote op " << i << " queue";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace klink
