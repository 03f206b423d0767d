#include "src/runtime/query_fabric.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/workloads/workload.h"

namespace klink {

/// Corruption injection for the AuditConsistency death tests: plants
/// inconsistencies the public API cannot produce, proving the auditor
/// detects state corruption rather than merely passing on healthy state.
class QueryFabricTestPeer {
 public:
  static void CorruptLiveCount(QueryFabric& f) { ++f.live_count_; }
  static void CorruptGeneration(QueryFabric& f) {
    ++f.slots_.at(0).generation;
  }
  static void PlantDanglingEndpoint(QueryFabric& f) {
    f.endpoints_["dangling"] = EndpointBinding{/*query=*/(1 << 20) | 7, 0};
  }
  static void PlantUnjournaledDirtyBit(QueryFabric& f) {
    f.slots_.at(0).mark = QueryFabric::Mark::kFull;
  }
};

namespace {

std::unique_ptr<Query> CountQuery(QueryId id) {
  PipelineBuilder b("count");
  b.Source("src", 5.0)
      .TumblingAggregate("w", 10.0, SecondsToMicros(1),
                         AggregationKind::kCount)
      .Sink("out", 2.0);
  return b.Build(id);
}

void EnqueueOne(Query& q) {
  q.sources()[0]->input(0).Push(
      MakeDataEvent(/*event_time=*/1000, /*ingest_time=*/1000, /*key=*/1,
                    /*value=*/1.0));
}

TEST(QueryFabricTest, AttachAssignsDenseGenerationZeroIds) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(fabric.live_count(), 2);
  EXPECT_EQ(fabric.state(a), QueryState::kActive);
  EXPECT_TRUE(fabric.IsLive(b));
  EXPECT_EQ(fabric.Find(a)->id(), a);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, SlotReuseBumpsGenerationAndNeverAliases) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Attach(CountQuery(1), nullptr, 0);
  fabric.Detach(a, QueryFabric::DetachMode::kImmediate);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_FALSE(fabric.IsLive(a));

  // The freed slot is reused, but the new tenant's id carries the next
  // generation: the retired id keeps resolving to the retired query.
  const QueryId c = fabric.Attach(CountQuery(2), nullptr, 0);
  EXPECT_EQ(QuerySlot(c), QuerySlot(a));
  EXPECT_EQ(QueryGeneration(c), QueryGeneration(a) + 1);
  EXPECT_NE(c, a);
  EXPECT_TRUE(fabric.IsLive(c));
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.Find(a)->name(), "count");
  EXPECT_EQ(fabric.live_count(), 2);
  EXPECT_EQ(fabric.attached_total(), 3);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, GracefulDetachDrainsBeforeRetiring) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  EnqueueOne(*fabric.Find(a));

  fabric.Detach(a, QueryFabric::DetachMode::kDrain);
  EXPECT_EQ(fabric.state(a), QueryState::kDraining);
  EXPECT_TRUE(fabric.IsLive(a));  // still schedulable
  EXPECT_EQ(fabric.draining_count(), 1);

  // Queues still hold work: the sweep must not retire it.
  std::vector<QueryId> retired;
  fabric.SweepDrained(&retired);
  EXPECT_TRUE(retired.empty());

  // Drain the queue (as execution would), then the sweep retires it.
  fabric.Find(a)->sources()[0]->input(0).Clear();
  fabric.SweepDrained(&retired);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], a);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.live_count(), 0);
  EXPECT_EQ(fabric.draining_count(), 0);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, DrainWithEmptyQueuesRetiresImmediately) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  fabric.Detach(a, QueryFabric::DetachMode::kDrain);
  EXPECT_EQ(fabric.state(a), QueryState::kDetached);
  EXPECT_EQ(fabric.draining_count(), 0);
}

TEST(QueryFabricTest, LiveAndFedViewsTrackChurn) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  SourceSpec spec;
  spec.events_per_second = 10;
  auto feed = std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec}, std::make_unique<ConstantDelay>(0),
      /*seed=*/1, /*start_time=*/0);
  const QueryId b = fabric.Attach(CountQuery(1), std::move(feed), 0);

  EXPECT_EQ(fabric.live().size(), 2u);
  ASSERT_EQ(fabric.fed().size(), 1u);  // only b has a feed
  EXPECT_EQ(fabric.fed()[0].id, b);

  fabric.Detach(a, QueryFabric::DetachMode::kImmediate);
  EXPECT_EQ(fabric.live().size(), 1u);
  EXPECT_EQ(fabric.live()[0].id, b);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, EndpointsBindRewireAndDropWithQuery) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);

  fabric.BindEndpoint("clicks", a, 0);
  const EndpointBinding* binding = fabric.ResolveEndpoint("clicks");
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->query, a);

  // Live rewire to another tenant.
  fabric.BindEndpoint("clicks", b, 0);
  binding = fabric.ResolveEndpoint("clicks");
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->query, b);
  EXPECT_EQ(fabric.num_endpoints(), 1);

  // A retiring query takes its bindings with it, atomically.
  fabric.Detach(b, QueryFabric::DetachMode::kImmediate);
  EXPECT_EQ(fabric.ResolveEndpoint("clicks"), nullptr);
  EXPECT_EQ(fabric.num_endpoints(), 0);

  fabric.BindEndpoint("clicks", a, 0);
  fabric.UnbindEndpoint("clicks");
  EXPECT_EQ(fabric.ResolveEndpoint("clicks"), nullptr);
  fabric.AuditConsistency();
}

TEST(QueryFabricTest, JournalReportsTouchedAndDetachedOnce) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);

  std::vector<QueryId> touched;
  std::vector<QueryId> detached;
  fabric.TakeJournal(&touched, &detached);  // attach marks both dirty
  EXPECT_EQ(touched, (std::vector<QueryId>{a, b}));
  EXPECT_TRUE(detached.empty());

  // No changes: the journal is empty, not a rescan.
  fabric.TakeJournal(&touched, &detached);
  EXPECT_TRUE(touched.empty());
  EXPECT_TRUE(detached.empty());

  fabric.MarkDirty(b);
  fabric.Detach(a, QueryFabric::DetachMode::kImmediate);
  fabric.TakeJournal(&touched, &detached);
  EXPECT_EQ(touched, (std::vector<QueryId>{b}));
  EXPECT_EQ(detached, (std::vector<QueryId>{a}));

  // Marks on dead ids are ignored.
  fabric.MarkDirty(a);
  fabric.TakeJournal(&touched, &detached);
  EXPECT_TRUE(touched.empty());
}

TEST(QueryFabricTest, MarkAllDirtyTouchesEveryLiveQuery) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);
  std::vector<QueryId> touched;
  std::vector<QueryId> detached;
  fabric.TakeJournal(&touched, &detached);

  fabric.MarkAllDirty();
  fabric.TakeJournal(&touched, &detached);
  EXPECT_EQ(touched, (std::vector<QueryId>{a, b}));
}

TEST(QueryFabricTest, IngestMarksReportedAndUpgradedByFullMarks) {
  QueryFabric fabric;
  const QueryId a = fabric.Attach(CountQuery(0), nullptr, 0);
  const QueryId b = fabric.Attach(CountQuery(1), nullptr, 0);
  const QueryId c = fabric.Attach(CountQuery(2), nullptr, 0);
  std::vector<QueryId> touched;
  std::vector<QueryId> detached;
  std::vector<uint8_t> ingest_only;
  // An ingest mark never weakens the full mark attach placed.
  fabric.MarkIngested(a);
  fabric.TakeJournal(&touched, &detached, &ingest_only);
  EXPECT_EQ(touched, (std::vector<QueryId>{a, b, c}));
  EXPECT_EQ(ingest_only, (std::vector<uint8_t>{0, 0, 0}));

  // a: ingest only. b: ingest, then executed (upgraded). c: ingest, then
  // a barrier sweep (upgraded by MarkAllDirty).
  fabric.MarkIngested(a);
  fabric.MarkIngested(b);
  fabric.MarkIngested(a);  // repeated marks journal the id once
  fabric.MarkDirty(b);
  fabric.MarkIngested(c);
  fabric.TakeJournal(&touched, &detached, &ingest_only);
  EXPECT_EQ(touched, (std::vector<QueryId>{a, b, c}));
  EXPECT_EQ(ingest_only, (std::vector<uint8_t>{1, 0, 1}));

  fabric.MarkIngested(c);
  fabric.MarkAllDirty();
  fabric.MarkIngested(b);  // a weaker mark after a full one stays full
  fabric.TakeJournal(&touched, &detached, &ingest_only);
  EXPECT_EQ(touched, (std::vector<QueryId>{a, b, c}));
  EXPECT_EQ(ingest_only, (std::vector<uint8_t>{0, 0, 0}));

  // Marks on dead ids are ignored; the flags stay parallel to `touched`.
  fabric.MarkIngested(b);
  fabric.Detach(a, QueryFabric::DetachMode::kImmediate);
  fabric.MarkIngested(a);
  fabric.TakeJournal(&touched, &detached, &ingest_only);
  EXPECT_EQ(touched, (std::vector<QueryId>{b}));
  EXPECT_EQ(ingest_only, (std::vector<uint8_t>{1}));
  EXPECT_EQ(detached, (std::vector<QueryId>{a}));
  fabric.AuditConsistency();
}

using QueryFabricDeathTest = ::testing::Test;

TEST(QueryFabricDeathTest, AuditDetectsCorruptLiveCount) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::CorruptLiveCount(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

TEST(QueryFabricDeathTest, AuditDetectsGenerationMismatch) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::CorruptGeneration(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

TEST(QueryFabricDeathTest, AuditDetectsDanglingEndpoint) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  QueryFabricTestPeer::PlantDanglingEndpoint(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

TEST(QueryFabricDeathTest, AuditDetectsUnjournaledDirtyBit) {
  QueryFabric fabric;
  fabric.Attach(CountQuery(0), nullptr, 0);
  std::vector<QueryId> touched;
  std::vector<QueryId> detached;
  fabric.TakeJournal(&touched, &detached);  // journal now empty, bits clear
  QueryFabricTestPeer::PlantUnjournaledDirtyBit(fabric);
  EXPECT_DEATH(fabric.AuditConsistency(), "");
}

}  // namespace
}  // namespace klink
