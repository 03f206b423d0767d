#include "src/runtime/snapshot.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/common/check.h"
#include "src/window/swm_tracker.h"

namespace klink {

const QueryInfo* RuntimeSnapshot::Find(QueryId id) const {
  if (!index.empty()) {
    const auto it = index.find(id);
    if (it == index.end()) return nullptr;
    return &queries[static_cast<size_t>(it->second)];
  }
  for (const QueryInfo& info : queries) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

namespace {

/// Earlier of two times, where kNoTime means "none" (nothing queued, no
/// deadline).
TimeMicros MinIngest(TimeMicros a, TimeMicros b) {
  if (a == kNoTime) return b;
  if (b == kNoTime) return a;
  return std::min(a, b);
}

/// Expected cost of the correction elements pending at operator `i`: they
/// are not queued anywhere yet, but will be emitted at the next watermark
/// and must drain through the operator's downstream path before the sweep
/// completes.
double OpRefireDebt(const Query& query, const QueryInfo& info, int i) {
  const int64_t refires = query.op(i).PendingRefires();
  if (refires <= 0) return 0.0;
  const int down = query.edge(i).downstream;
  const double tail =
      down == -1 ? 0.0 : info.op_path_cost[static_cast<size_t>(down)];
  return static_cast<double>(refires) * tail;
}

/// The queue-derived aggregates — queued_events, oldest_ingest,
/// drain_cost_micros and the lanes' copies of them — recomputed from
/// op_queued, op_oldest and op_path_cost. Shared by the full collect and
/// the ingest refresh, so both sum the same terms in the same order and
/// produce the same bits. Expects the lanes vector already laid out.
void AggregateQueues(const Query& query, QueryInfo* info) {
  const size_t n = info->op_queued.size();
  // cost^q(t): drain cost of everything currently queued (Sec. 3).
  info->queued_events = 0;
  info->oldest_ingest = kNoTime;
  info->drain_cost_micros = 0.0;
  for (size_t i = 0; i < n; ++i) {
    info->queued_events += info->op_queued[i];
    info->oldest_ingest = MinIngest(info->oldest_ingest, info->op_oldest[i]);
    info->drain_cost_micros +=
        static_cast<double>(info->op_queued[i]) * info->op_path_cost[i];
  }
  if (!query.sharded()) {
    LaneInfo& lane = info->lanes[0];
    lane.queued_events = info->queued_events;
    lane.oldest_ingest = info->oldest_ingest;
    lane.drain_cost_micros = info->drain_cost_micros;
    return;
  }
  for (int l = 0; l < query.num_lanes(); ++l) {
    const Query::Lane& ql = query.lane(l);
    LaneInfo& lane = info->lanes[static_cast<size_t>(l)];
    lane.queued_events = 0;
    lane.oldest_ingest = kNoTime;
    lane.drain_cost_micros = 0.0;
    for (int i = ql.begin; i < ql.end; ++i) {
      const size_t idx = static_cast<size_t>(i);
      lane.queued_events += info->op_queued[idx];
      lane.oldest_ingest = MinIngest(lane.oldest_ingest, info->op_oldest[idx]);
      lane.drain_cost_micros +=
          static_cast<double>(info->op_queued[idx]) * info->op_path_cost[idx];
    }
  }
}

}  // namespace

void CollectQueryInfo(const Query& query, TimeMicros now, QueryInfo* info) {
  KLINK_CHECK(info != nullptr);
  (void)now;
  info->id = query.id();
  info->query = &query;
  info->deploy_time = query.deploy_time();
  info->upcoming_deadline = query.UpcomingDeadline();

  const int n = query.num_operators();
  const size_t size = static_cast<size_t>(n);
  info->op_queued.assign(size, 0);
  info->op_oldest.assign(size, kNoTime);
  info->op_selectivity.assign(size, 1.0);
  info->op_cost.assign(size, 0.0);
  info->op_windowed.assign(size, 0);
  info->op_partial.assign(size, 0);
  info->op_path_cost.assign(size, 0.0);
  info->streams.clear();
  info->memory_bytes = 0;

  // Per-operator reads.
  for (int i = 0; i < n; ++i) {
    const Operator& op = query.op(i);
    const size_t idx = static_cast<size_t>(i);
    info->op_queued[idx] = op.QueuedEvents();
    info->op_selectivity[idx] = op.selectivity();
    info->op_cost[idx] = op.cost_per_event();
    info->op_windowed[idx] = op.IsWindowed() ? 1 : 0;
    info->op_partial[idx] = op.SupportsPartialComputation() ? 1 : 0;
    info->memory_bytes += op.MemoryBytes();
    for (int s = 0; s < op.num_inputs(); ++s) {
      info->op_oldest[idx] =
          MinIngest(info->op_oldest[idx], op.input(s).OldestIngestTime());
    }
    if (const SwmTracker* tracker = op.swm_tracker()) {
      for (int s = 0; s < tracker->num_streams(); ++s) {
        const SwmTracker::StreamStats& st = tracker->stream(s);
        StreamProgress progress;
        progress.op_index = i;
        progress.stream = s;
        progress.upcoming_deadline = op.UpcomingDeadline();
        progress.deadline_period = op.DeadlinePeriod();
        progress.epoch = st.epoch;
        progress.current_mu = st.current_delays.mean();
        progress.current_chi = st.current_delays.mean_sq();
        progress.current_count = st.current_delays.count();
        progress.last_mu = st.last_mu;
        progress.last_chi = st.last_chi;
        progress.has_finalized_epoch = st.has_finalized_epoch;
        progress.last_sweep_ingest = st.last_sweep_ingest;
        progress.last_swept_deadline = st.last_swept_deadline;
        info->streams.push_back(progress);
      }
    }
  }

  // Expected remaining end-to-end cost per element queued at each operator:
  // path_cost[i] = cost_i + selectivity_i * path_cost[downstream(i)].
  // Topological order means a reverse scan sees downstream before upstream.
  for (int i = n - 1; i >= 0; --i) {
    const size_t idx = static_cast<size_t>(i);
    const int down = query.edge(i).downstream;
    const double tail =
        down == -1 ? 0.0 : info->op_path_cost[static_cast<size_t>(down)];
    info->op_path_cost[idx] =
        info->op_cost[idx] + info->op_selectivity[idx] * tail;
  }

  // Refire debt: correction elements pending at windowed operators.
  info->refire_debt_micros = 0.0;
  for (int i = 0; i < n; ++i) {
    info->refire_debt_micros += OpRefireDebt(query, *info, i);
  }

  // Schedulable units. Unsharded queries expose a single whole-query lane
  // (-1) mirroring the query-level aggregates, so lane-iterating policies
  // keep pre-sharding behavior bit for bit. Sharded queries get one
  // LaneInfo per Query::Lane, aggregated over the lane's contiguous op
  // range; the lanes partition [0, n) in op order, so stream subranges are
  // found by a single monotone sweep over the op-ordered `streams` vector.
  // AggregateQueues fills the queue-derived lane fields below.
  info->lanes.clear();
  if (!query.sharded()) {
    LaneInfo lane;
    lane.lane = -1;
    lane.stage = 0;
    lane.refire_debt_micros = info->refire_debt_micros;
    lane.streams_begin = 0;
    lane.streams_end = static_cast<int>(info->streams.size());
    info->lanes.push_back(lane);
  } else {
    int stream_pos = 0;
    for (int l = 0; l < query.num_lanes(); ++l) {
      const Query::Lane& ql = query.lane(l);
      LaneInfo lane;
      lane.lane = l;
      lane.stage = ql.stage;
      lane.streams_begin = stream_pos;
      for (int i = ql.begin; i < ql.end; ++i) {
        lane.refire_debt_micros += OpRefireDebt(query, *info, i);
      }
      while (stream_pos < static_cast<int>(info->streams.size()) &&
             info->streams[static_cast<size_t>(stream_pos)].op_index <
                 ql.end) {
        ++stream_pos;
      }
      lane.streams_end = stream_pos;
      info->lanes.push_back(lane);
    }
  }

  // Ideal unit cost of one source event (slowdown denominator, Sec. 6.1.2).
  // Source operators are unary: ingest appends to input(0) only.
  info->source_ops.clear();
  double unit_cost = 0.0;
  for (const SourceOperator* src : query.sources()) {
    for (int i = 0; i < n; ++i) {
      if (&query.op(i) != src) continue;
      KLINK_DCHECK(src->num_inputs() == 1);
      info->source_ops.push_back(i);
      unit_cost =
          std::max(unit_cost, info->op_path_cost[static_cast<size_t>(i)]);
      break;
    }
  }
  info->unit_cost_micros = unit_cost;

  // HR priority [48]: global output rate of the pipeline — the product of
  // selectivities (output events per source event) over the total per-event
  // processing cost.
  double sel_product = 1.0;
  double cost_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    // Terminal (sink) operators emit nothing by definition; their measured
    // selectivity of zero must not nullify the path productivity. The
    // *declared* selectivities are used so the rate reflects the query
    // plan, as in [48], rather than transient runtime noise.
    if (query.edge(i).downstream != -1) {
      sel_product *= std::clamp(query.op(i).selectivity_hint(), 0.0, 1.0);
    }
    cost_sum += info->op_cost[idx];
  }
  info->output_rate = cost_sum <= 0.0 ? 0.0 : sel_product / cost_sum;

  AggregateQueues(query, info);
}

void RestrictQueryInfo(const Query& query, int begin, int end,
                       QueryInfo* info) {
  KLINK_DCHECK(info->query == &query);
  KLINK_DCHECK(!query.sharded());
  info->upcoming_deadline = kNoTime;
  info->memory_bytes = 0;
  info->refire_debt_micros = 0.0;
  for (int i = 0; i < query.num_operators(); ++i) {
    const size_t idx = static_cast<size_t>(i);
    if (i < begin || i >= end) {
      info->op_queued[idx] = 0;
      info->op_oldest[idx] = kNoTime;
      continue;
    }
    const Operator& op = query.op(i);
    info->memory_bytes += op.MemoryBytes();
    info->refire_debt_micros += OpRefireDebt(query, *info, i);
    if (info->op_windowed[idx] != 0) {
      info->upcoming_deadline =
          MinIngest(info->upcoming_deadline, op.UpcomingDeadline());
    }
  }
  std::erase_if(info->streams, [begin, end](const StreamProgress& p) {
    return p.op_index < begin || p.op_index >= end;
  });
  LaneInfo& lane = info->lanes[0];
  lane.refire_debt_micros = info->refire_debt_micros;
  lane.streams_end = static_cast<int>(info->streams.size());
  AggregateQueues(query, info);
}

void RefreshIngestedQueryInfo(const Query& query, QueryInfo* info) {
  KLINK_DCHECK(info->query == &query);
  const std::vector<SourceOperator*>& sources = query.sources();
  KLINK_DCHECK(sources.size() == info->source_ops.size());
  for (size_t k = 0; k < sources.size(); ++k) {
    const size_t idx = static_cast<size_t>(info->source_ops[k]);
    const StreamQueue& in = sources[k]->input(0);
    // Ingest appends at the back, so a queue that held elements at the last
    // refresh still has the same front; only an empty one needs a read.
    if (info->op_queued[idx] == 0) info->op_oldest[idx] = in.OldestIngestTime();
    info->op_queued[idx] = in.size();
  }
  info->memory_bytes = query.MemoryBytes();
  AggregateQueues(query, info);
}

namespace {

/// Accumulates the first differing field name while walking two entries.
class FieldDiff {
 public:
  const std::string& first() const { return first_; }

  template <typename T>
  void Field(const char* name, const T& a, const T& b) {
    if (first_.empty() && !Same(a, b)) first_ = name;
  }

  template <typename T>
  void Array(const char* name, const std::vector<T>& a,
             const std::vector<T>& b) {
    if (!first_.empty()) return;
    if (a.size() != b.size()) {
      first_ = std::string(name).append(".size");
      return;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (!Same(a[i], b[i])) {
        first_ = Indexed(name, i);
        return;
      }
    }
  }

  /// Compares element `i` of a struct vector member by member via `each`,
  /// which receives a FieldDiff and reports plain member names.
  template <typename T, typename Each>
  void Structs(const char* name, const std::vector<T>& a,
               const std::vector<T>& b, Each each) {
    if (!first_.empty()) return;
    if (a.size() != b.size()) {
      first_ = std::string(name).append(".size");
      return;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      FieldDiff inner;
      each(inner, a[i], b[i]);
      if (!inner.first_.empty()) {
        first_ = Indexed(name, i).append(".").append(inner.first_);
        return;
      }
    }
  }

 private:
  template <typename T>
  static bool Same(const T& a, const T& b) {
    return a == b;
  }
  static bool Same(double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  }
  static std::string Indexed(const char* name, size_t i) {
    return std::string(name).append("[").append(std::to_string(i)).append(
        "]");
  }

  std::string first_;
};

}  // namespace

std::string FirstQueryInfoMismatch(const QueryInfo& a, const QueryInfo& b) {
  FieldDiff d;
  d.Field("id", a.id, b.id);
  d.Field("query", a.query, b.query);
  d.Field("deploy_time", a.deploy_time, b.deploy_time);
  d.Field("upcoming_deadline", a.upcoming_deadline, b.upcoming_deadline);
  d.Field("queued_events", a.queued_events, b.queued_events);
  d.Field("memory_bytes", a.memory_bytes, b.memory_bytes);
  d.Field("oldest_ingest", a.oldest_ingest, b.oldest_ingest);
  d.Field("drain_cost_micros", a.drain_cost_micros, b.drain_cost_micros);
  d.Field("refire_debt_micros", a.refire_debt_micros, b.refire_debt_micros);
  d.Field("unit_cost_micros", a.unit_cost_micros, b.unit_cost_micros);
  d.Field("output_rate", a.output_rate, b.output_rate);
  d.Structs("streams", a.streams, b.streams,
            [](FieldDiff& f, const StreamProgress& x, const StreamProgress& y) {
              f.Field("op_index", x.op_index, y.op_index);
              f.Field("stream", x.stream, y.stream);
              f.Field("upcoming_deadline", x.upcoming_deadline,
                      y.upcoming_deadline);
              f.Field("deadline_period", x.deadline_period, y.deadline_period);
              f.Field("epoch", x.epoch, y.epoch);
              f.Field("current_mu", x.current_mu, y.current_mu);
              f.Field("current_chi", x.current_chi, y.current_chi);
              f.Field("current_count", x.current_count, y.current_count);
              f.Field("last_mu", x.last_mu, y.last_mu);
              f.Field("last_chi", x.last_chi, y.last_chi);
              f.Field("has_finalized_epoch", x.has_finalized_epoch,
                      y.has_finalized_epoch);
              f.Field("last_sweep_ingest", x.last_sweep_ingest,
                      y.last_sweep_ingest);
              f.Field("last_swept_deadline", x.last_swept_deadline,
                      y.last_swept_deadline);
            });
  d.Structs("lanes", a.lanes, b.lanes,
            [](FieldDiff& f, const LaneInfo& x, const LaneInfo& y) {
              f.Field("lane", x.lane, y.lane);
              f.Field("stage", x.stage, y.stage);
              f.Field("queued_events", x.queued_events, y.queued_events);
              f.Field("oldest_ingest", x.oldest_ingest, y.oldest_ingest);
              f.Field("drain_cost_micros", x.drain_cost_micros,
                      y.drain_cost_micros);
              f.Field("refire_debt_micros", x.refire_debt_micros,
                      y.refire_debt_micros);
              f.Field("streams_begin", x.streams_begin, y.streams_begin);
              f.Field("streams_end", x.streams_end, y.streams_end);
            });
  d.Array("op_queued", a.op_queued, b.op_queued);
  d.Array("op_selectivity", a.op_selectivity, b.op_selectivity);
  d.Array("op_cost", a.op_cost, b.op_cost);
  d.Array("op_windowed", a.op_windowed, b.op_windowed);
  d.Array("op_partial", a.op_partial, b.op_partial);
  d.Array("op_oldest", a.op_oldest, b.op_oldest);
  d.Array("op_path_cost", a.op_path_cost, b.op_path_cost);
  d.Array("source_ops", a.source_ops, b.source_ops);
  return d.first();
}

}  // namespace klink
