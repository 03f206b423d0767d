#include "src/dist/dist_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace klink {

void DistEngineConfig::Validate() const {
  KLINK_CHECK_GE(num_nodes, 1);
  KLINK_CHECK_GE(link_latency, 0);
  // Every node is a single-node engine's worth of cores, memory and
  // pressure model, so the same range checks apply.
  EngineConfig per_node;
  per_node.num_cores = node.num_cores;
  per_node.cycle_length = cycle_length;
  per_node.memory_capacity_bytes = node.memory_capacity_bytes;
  per_node.backpressure_resume_fraction = node.backpressure_resume_fraction;
  per_node.memory_pressure_penalty = memory_pressure_penalty;
  per_node.pressure_onset_fraction = pressure_onset_fraction;
  per_node.Validate();
}

DistEngine::DistEngine(const DistEngineConfig& config,
                       const PolicyFactory& factory)
    : config_(config) {
  config_.Validate();
  for (int i = 0; i < config.num_nodes; ++i) {
    std::unique_ptr<SchedulingPolicy> policy = factory(i);
    KLINK_CHECK(policy != nullptr);
    nodes_.push_back(
        std::make_unique<Node>(i, config.node, std::move(policy)));
  }
}

QueryId DistEngine::AddQuery(std::unique_ptr<Query> query,
                             std::unique_ptr<EventFeed> feed,
                             TimeMicros deploy_time) {
  KLINK_CHECK(query != nullptr);
  KLINK_CHECK(!query->sharded());
  query->set_deploy_time(deploy_time);
  const QueryId id = static_cast<QueryId>(queries_.size());
  KLINK_CHECK_EQ(query->id(), id);
  DeployedQuery dq;
  dq.placement =
      PlaceOperators(*query, config_.num_nodes,
                     static_cast<NodeId>(id % config_.num_nodes),
                     config_.placement);
  // Placement gives every node at most one contiguous segment, so a node
  // drains its share of the query as one operator range.
  dq.segments.assign(static_cast<size_t>(config_.num_nodes), Query::Lane{});
  for (int i = 0; i < query->num_operators(); ++i) {
    Query::Lane& seg =
        dq.segments[static_cast<size_t>(dq.placement[static_cast<size_t>(i)])];
    KLINK_CHECK(seg.begin == seg.end || seg.end == i);
    if (seg.begin == seg.end) seg.begin = i;
    seg.end = i + 1;
  }
  dq.query = std::move(query);
  dq.feed = std::move(feed);
  queries_.push_back(std::move(dq));
  return id;
}

Query& DistEngine::query(QueryId id) {
  KLINK_CHECK(id >= 0 && id < num_queries());
  return *queries_[static_cast<size_t>(id)].query;
}

const std::vector<NodeId>& DistEngine::placement(QueryId id) const {
  KLINK_CHECK(id >= 0 && id < num_queries());
  return queries_[static_cast<size_t>(id)].placement;
}

void DistEngine::RunUntil(TimeMicros end_time) {
  while (now_ < end_time) RunCycle();
}

void DistEngine::RunCycle() {
  DeliverTransit();
  SumNodeMemory();
  Ingest();
  for (auto& node : nodes_) {
    node->memory().Update(node_memory_[static_cast<size_t>(node->id())]);
  }
  PublishInfo();

  const double r = static_cast<double>(config_.cycle_length);
  RuntimeSnapshot snap;
  Selection selected;
  for (auto& node : nodes_) {
    BuildNodeSnapshot(node->id(), &snap);
    const double sched_cost = node->policy().EvaluationCostMicros(snap);
    metrics_.AddSchedulerCost(sched_cost);
    const double multiplier = node->memory().CostMultiplier(
        config_.pressure_onset_fraction, config_.memory_pressure_penalty);
    // Strict cycle-grained quanta, as in Engine::RunCycle: each selected
    // sub-query occupies one local core for the whole cycle.
    selected.Clear();
    node->policy().SelectQueries(snap, node->config().num_cores, &selected);
    const double budget = std::max(
        0.0, r - sched_cost / static_cast<double>(node->config().num_cores));
    for (SlotAssignment& slot : selected) {
      slot.budget_micros = budget * slot.budget_fraction;
      DeployedQuery& dq = queries_[static_cast<size_t>(slot.query)];
      Query& q = *dq.query;
      const Query::Lane& seg = dq.segments[static_cast<size_t>(node->id())];
      // Outputs crossing to another node ride the link: each flushed batch
      // is delivered link_latency after the virtual time it finished.
      const ExecutionContext::Egress to_link =
          [this, &q](int op_index, const std::vector<Event>& events,
                     TimeMicros at) {
            const int down = q.edge(op_index).downstream;
            for (const Event& e : events) {
              transit_.push(Transit{at + config_.link_latency, transit_seq_++,
                                    q.id(), down, e});
            }
          };
      context_.BeginCycle(slot.budget_micros, multiplier, now_);
      context_.RunQuery(q, seg.begin, seg.end, &to_link);
      metrics_.AddCoreBusy(context_.cycle_busy_micros());
      metrics_.AddProcessed(context_.cycle_processed_events());
    }
    metrics_.AddCoreAvailable(static_cast<double>(node->config().num_cores) *
                              r);
  }

  now_ += config_.cycle_length;
}

void DistEngine::DeliverTransit() {
  while (!transit_.empty() && transit_.top().deliver_time <= now_) {
    const Transit& t = transit_.top();
    Query& q = *queries_[static_cast<size_t>(t.query_id)].query;
    q.op(t.op_index).input(t.event.stream).Push(t.event);
    transit_.pop();
  }
}

void DistEngine::SumNodeMemory() {
  node_memory_.assign(nodes_.size(), 0);
  for (const DeployedQuery& dq : queries_) {
    for (int i = 0; i < dq.query->num_operators(); ++i) {
      node_memory_[static_cast<size_t>(dq.placement[static_cast<size_t>(i)])] +=
          dq.query->op(i).MemoryBytes();
    }
  }
}

void DistEngine::Ingest() {
  for (DeployedQuery& dq : queries_) {
    if (dq.feed == nullptr || now_ < dq.query->deploy_time()) continue;
    // Backpressure of the node hosting the sources stalls this query's
    // ingestion (sources sit in the first placement segment).
    const NodeId source_node = dq.placement[0];
    const Node& host = *nodes_[static_cast<size_t>(source_node)];
    if (host.memory().backpressured()) continue;
    int64_t& used = node_memory_[static_cast<size_t>(source_node)];
    const int64_t budget = host.config().memory_capacity_bytes - used;
    if (budget <= 0) continue;
    feed_scratch_.clear();
    dq.feed->PollUpTo(now_, budget, &feed_scratch_);
    int64_t data = 0;
    used += PushToSources(feed_scratch_, *dq.query, &source_scratch_, &data);
    metrics_.AddIngested(data);
  }
}

void DistEngine::PublishInfo() {
  // Each query's owning nodes publish their runtime information; remote
  // readers see it after link_latency (Sec. 4 forwarding). The drain cost
  // is decomposed per node from the collect's per-operator terms.
  for (DeployedQuery& dq : queries_) {
    CollectQueryInfo(*dq.query, now_, &dq.info);
    ForwardedQueryInfo fwd;
    fwd.published_at = now_;
    fwd.streams = dq.info.streams;
    fwd.upcoming_deadline = dq.info.upcoming_deadline;
    fwd.drain_cost_by_node.assign(static_cast<size_t>(config_.num_nodes),
                                  0.0);
    for (int i = 0; i < dq.query->num_operators(); ++i) {
      const size_t idx = static_cast<size_t>(i);
      fwd.drain_cost_by_node[static_cast<size_t>(dq.placement[idx])] +=
          static_cast<double>(dq.info.op_queued[idx]) *
          dq.info.op_path_cost[idx];
    }
    dq.channel.Publish(std::move(fwd));
    dq.channel.Compact(now_, config_.link_latency);
  }
}

void DistEngine::BuildNodeSnapshot(NodeId node_id, RuntimeSnapshot* snap) {
  const Node& node = *nodes_[static_cast<size_t>(node_id)];
  snap->now = now_;
  snap->memory_utilization = node.memory().utilization();
  snap->backpressured = node.memory().backpressured();
  snap->queries.clear();
  // Query-id order, so order-sensitive policies (Default's random pick)
  // see the same sequence on every run.
  for (const DeployedQuery& dq : queries_) {
    const Query::Lane& seg = dq.segments[static_cast<size_t>(node_id)];
    if (seg.begin == seg.end) continue;  // no presence on this node
    // Local state is fresh; the rest of the query is known only through
    // the last forwarded record, stale by link_latency (Sec. 4).
    QueryInfo& info = snap->queries.emplace_back(dq.info);
    RestrictQueryInfo(*dq.query, seg.begin, seg.end, &info);
    const ForwardedQueryInfo* remote =
        dq.channel.Latest(now_, config_.link_latency);
    if (remote == nullptr) continue;
    // Prefer fresh local deadlines; fall back to the forwarded one when
    // this node hosts no windowed operator of the query.
    if (info.upcoming_deadline == kNoTime) {
      info.upcoming_deadline = remote->upcoming_deadline;
    }
    for (size_t n = 0; n < remote->drain_cost_by_node.size(); ++n) {
      if (static_cast<NodeId>(n) == node_id) continue;  // fresh above
      info.drain_cost_micros += remote->drain_cost_by_node[n];
    }
    for (const StreamProgress& p : remote->streams) {
      if (dq.placement[static_cast<size_t>(p.op_index)] == node_id) continue;
      info.streams.push_back(p);
    }
    // The query's single lane mirrors the merged query-level figures.
    info.lanes[0].drain_cost_micros = info.drain_cost_micros;
    info.lanes[0].streams_end = static_cast<int>(info.streams.size());
  }
}

Histogram DistEngine::AggregateSwmLatency() const {
  Histogram h;
  for (const DeployedQuery& dq : queries_) {
    h.Merge(dq.query->sink().swm_latency());
  }
  return h;
}

Histogram DistEngine::AggregateMarkerLatency() const {
  Histogram h;
  for (const DeployedQuery& dq : queries_) {
    h.Merge(dq.query->sink().marker_latency());
  }
  return h;
}

}  // namespace klink
