#ifndef KLINK_DIST_DIST_ENGINE_H_
#define KLINK_DIST_DIST_ENGINE_H_

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/dist/forwarding.h"
#include "src/dist/node.h"
#include "src/dist/placement.h"
#include "src/query/query.h"
#include "src/runtime/engine.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/execution_context.h"
#include "src/runtime/metrics.h"
#include "src/runtime/snapshot.h"

namespace klink {

/// Distributed deployment configuration (Sec. 4 / Sec. 6.2.4).
struct DistEngineConfig {
  int num_nodes = 2;
  NodeConfig node;
  /// Scheduling cycle r, shared by all nodes.
  DurationMicros cycle_length = MillisToMicros(120);
  /// One-hop latency of inter-node event transfer and of the RPC-based
  /// information forwarding: remote nodes read cost/delay records this much
  /// later than they were published.
  DurationMicros link_latency = MillisToMicros(2);
  /// Managed-runtime memory pressure model (see EngineConfig).
  double memory_pressure_penalty = 0.35;
  double pressure_onset_fraction = 0.7;
  /// Physical plan strategy (see PlacementMode).
  PlacementMode placement = PlacementMode::kLocal;

  /// Aborts on out-of-range values: the EngineConfig::Validate checks on
  /// every node's cores, memory, cycle length and pressure model, plus
  /// num_nodes >= 1 and link_latency >= 0. Called by the DistEngine
  /// constructor.
  void Validate() const;
};

/// Multi-node SPE: operators are partitioned across nodes by the physical
/// plan; each node runs its own cores and its own autonomous policy over
/// the locally deployed sub-queries. Cross-node edges deliver events after
/// link_latency; Klink's runtime information travels through per-query
/// ForwardingChannels with the same latency, so every policy decision uses
/// locally fresh + remotely stale data, as in the paper's decentralized
/// design.
///
/// DistEngine only coordinates: placement, per-node policies and memory,
/// the transit heap and the forwarding channels. A node drains its segment
/// of a query with the single-node ExecutionContext::RunQuery, sees it
/// through CollectQueryInfo restricted to the segment (RestrictQueryInfo),
/// and ingests through the single-node PushToSources.
class DistEngine {
 public:
  using PolicyFactory =
      std::function<std::unique_ptr<SchedulingPolicy>(NodeId)>;

  DistEngine(const DistEngineConfig& config, const PolicyFactory& factory);

  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  /// Deploys an unsharded query. Its operator chain is split into
  /// contiguous segments placed starting at node (id mod num_nodes), so
  /// concurrent queries spread across the cluster.
  QueryId AddQuery(std::unique_ptr<Query> query, std::unique_ptr<EventFeed> feed,
                   TimeMicros deploy_time = 0);

  void RunUntil(TimeMicros end_time);
  TimeMicros now() const { return now_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  int num_queries() const { return static_cast<int>(queries_.size()); }
  Query& query(QueryId id);
  const std::vector<NodeId>& placement(QueryId id) const;

  const EngineMetrics& metrics() const { return metrics_; }
  Histogram AggregateSwmLatency() const;
  Histogram AggregateMarkerLatency() const;

 private:
  struct DeployedQuery {
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    std::vector<NodeId> placement;
    /// Per node, the operator range [begin, end) it hosts (empty if none).
    std::vector<Query::Lane> segments;
    ForwardingChannel channel;
    /// This cycle's full collect: backs the published record and, restricted
    /// to each hosting node's segment, that node's view.
    QueryInfo info;
  };
  struct Transit {
    TimeMicros deliver_time;
    int64_t seq;
    QueryId query_id;
    /// Receiving operator; event.stream is its input stream.
    int op_index;
    Event event;
    bool operator>(const Transit& other) const {
      if (deliver_time != other.deliver_time) {
        return deliver_time > other.deliver_time;
      }
      return seq > other.seq;
    }
  };

  void RunCycle();
  void DeliverTransit();
  void Ingest();
  void PublishInfo();
  void BuildNodeSnapshot(NodeId node_id, RuntimeSnapshot* snap);
  /// Recomputes node_memory_ from every hosted operator.
  void SumNodeMemory();

  DistEngineConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<DeployedQuery> queries_;
  std::priority_queue<Transit, std::vector<Transit>, std::greater<Transit>>
      transit_;
  int64_t transit_seq_ = 0;
  EngineMetrics metrics_;
  TimeMicros now_ = 0;
  /// Nodes drain their selections one slot after another on this context.
  ExecutionContext context_{/*slot=*/0};
  /// Memory held by each node's operators, kept current through ingest.
  std::vector<int64_t> node_memory_;
  std::vector<EventFeed::FeedElement> feed_scratch_;
  std::vector<std::vector<Event>> source_scratch_;
};

}  // namespace klink

#endif  // KLINK_DIST_DIST_ENGINE_H_
