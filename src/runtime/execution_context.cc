#include "src/runtime/execution_context.h"

#include <algorithm>
#include <span>

#include "src/common/check.h"
#include "src/runtime/audit.h"
#include "src/runtime/batch_emitter.h"

namespace klink {
namespace {

/// Elements per multi-input ProcessBatch call. Bounds the gather scratch
/// (and the emit scratch at kMaxBatch x fan-out) while staying large
/// enough that per-batch overhead is negligible against per-element work.
/// A unary batch is read in place and ends at the queue's chunk boundary
/// instead (StreamQueue::kChunkEvents, smaller).
constexpr int64_t kMaxBatch = 512;

}  // namespace

ExecutionContext::ExecutionContext(int slot)
    : slot_(slot), audit_(AuditEnabledFromEnv()) {}

void ExecutionContext::BeginCycle(double budget_micros, double cost_multiplier,
                                  TimeMicros cycle_start) {
  budget_micros_ = budget_micros;
  cost_multiplier_ = cost_multiplier;
  cycle_start_ = cycle_start;
  cycle_busy_micros_ = 0.0;
  cycle_processed_events_ = 0;
}

double ExecutionContext::RunQuery(Query& query, int begin, int end,
                                  const Egress* egress) {
  double consumed = 0.0;
  bool progressed = true;
  int64_t processed = 0;
  // Repeated topological sweeps: a sweep cascades events downstream; any
  // leftover upstream work (budget permitting) is picked up by the next
  // sweep. Stops when the budget is exhausted or all queues drained.
  while (progressed) {
    progressed = false;
    for (int i = begin; i < end; ++i) {
      Operator& op = query.op(i);
      const Query::Edge& edge = query.edge(i);
      StreamQueue* downstream_queue =
          edge.downstream == -1
              ? nullptr
              : &query.op(edge.downstream).input(edge.downstream_stream);
      // An edge leaving the range with an egress given: its batches are
      // handed over instead of flushed, so the downstream queue is never
      // touched.
      const bool to_egress =
          egress != nullptr && edge.downstream != -1 &&
          (edge.downstream < begin || edge.downstream >= end);
      BatchEmitter batch_emitter(downstream_queue, edge.downstream_stream,
                                 &emit_scratch_, /*direct_runs=*/!to_egress);
      const auto flush = [&] {
        if (!to_egress) {
          batch_emitter.Flush();
          return;
        }
        (*egress)(i, emit_scratch_,
                  cycle_start_ + static_cast<TimeMicros>(consumed));
        emit_scratch_.clear();
      };
      // Exchange operators route through their own inline emitter (fan-out
      // to per-shard queues); everything else appends to the single
      // downstream edge via the buffering BatchEmitter.
      Emitter* const inline_emitter = op.inline_emitter();
      Emitter& emitter =
          inline_emitter != nullptr ? *inline_emitter : batch_emitter;
      const double cost =
          std::max(0.01, op.cost_per_event() * cost_multiplier_);
      if (op.num_inputs() == 1) {
        // Batched fast path: a unary operator always pops its single
        // input FIFO, so the earliest-ingest scan is unnecessary and a
        // whole run is processed in place, straight out of the queue's
        // front chunk, then dropped (processing never touches the
        // operator's own input). A batch therefore ends at a chunk
        // boundary (at most kChunkEvents elements); BatchClock charges per
        // element, so where a batch ends does not change any result.
        StreamQueue& in = op.input(0);
        while (true) {
          const std::span<const Event> run = in.RunAt(0);
          const int64_t avail = static_cast<int64_t>(run.size());
          // Size the batch by replaying the scalar loop's budget
          // additions: the same floats added in the same order, so the
          // batch ends exactly where the scalar loop would stop.
          int64_t n = 0;
          double replay = consumed;
          while (n < avail && replay + cost <= budget_micros_) {
            replay += cost;
            ++n;
          }
          if (n == 0) break;
          if (audit_) {
            // Unary inputs hold stream-0 elements only: every producer
            // stamps the consuming input's index, and the batch is read
            // in place, with no re-stamping copy in between.
            for (const Event& e : run.first(static_cast<size_t>(n))) {
              KLINK_CHECK_EQ(e.stream, 0);
            }
          }
          BatchClock clock(cycle_start_, consumed, cost);
          op.ProcessBatch(run.data(), n, clock, emitter);
          consumed = clock.consumed_micros();
          in.PopBatch(nullptr, n);
          flush();
          processed += n;
          progressed = true;
        }
      } else {
        // Multi-input operators (joins) take their inputs in earliest-
        // ingest order, the lower stream index first on ties. A batch is
        // that merge, gathered run by run: an input keeps the turn while
        // its next element precedes the runner-up's front (or ties it with
        // the lower index). Processing never touches the operator's own
        // inputs, so the merge can be read ahead of processing; only a
        // barrier changes which inputs are blocked, so a batch ends after
        // one (and at kMaxBatch, or where the replayed budget stops). The
        // batch is read in place and each input's share is then dropped
        // with one PopBatch.
        const int num_inputs = op.num_inputs();
        inputs_.resize(static_cast<size_t>(num_inputs));
        taken_.resize(static_cast<size_t>(num_inputs));
        batch_.resize(static_cast<size_t>(kMaxBatch));
        bool barrier = true;  // inputs not resolved yet
        while (true) {
          if (barrier) {
            // Checkpoint barrier alignment (Flink-style): an input whose
            // barrier already arrived for an epoch the others have not
            // reached is blocked — its post-barrier elements must not
            // enter operator state before the snapshot is taken at
            // alignment. Inputs are resolved, blocked ones as null, once
            // per visit and again after each barrier.
            uint64_t min_epoch = op.last_barrier_epoch(0);
            for (int s = 1; s < num_inputs; ++s) {
              min_epoch = std::min(min_epoch, op.last_barrier_epoch(s));
            }
            for (int s = 0; s < num_inputs; ++s) {
              inputs_[static_cast<size_t>(s)] =
                  op.last_barrier_epoch(s) > min_epoch ? nullptr
                                                       : &op.input(s);
            }
            barrier = false;
          }
          std::fill(taken_.begin(), taken_.end(), 0);
          int64_t n = 0;
          double replay = consumed;
          bool full = false;  // batch cap or budget reached
          while (!full && !barrier) {
            // The earliest unread front (`best`) and the runner-up.
            int best = -1;
            int second = -1;
            TimeMicros best_time = 0;
            TimeMicros second_time = 0;
            for (int s = 0; s < num_inputs; ++s) {
              const StreamQueue* in = inputs_[static_cast<size_t>(s)];
              const int64_t next = taken_[static_cast<size_t>(s)];
              if (in == nullptr || next == in->size()) continue;
              const TimeMicros t = in->At(next).ingest_time;
              if (best == -1 || t < best_time) {
                second = best;
                second_time = best_time;
                best = s;
                best_time = t;
              } else if (second == -1 || t < second_time) {
                second = s;
                second_time = t;
              }
            }
            if (best == -1) break;
            const StreamQueue& in = *inputs_[static_cast<size_t>(best)];
            int64_t& next = taken_[static_cast<size_t>(best)];
            while (next < in.size()) {
              const Event& e = in.At(next);
              if (second != -1 && (e.ingest_time > second_time ||
                                   (e.ingest_time == second_time &&
                                    second < best))) {
                break;
              }
              if (n == kMaxBatch || replay + cost > budget_micros_) {
                full = true;
                break;
              }
              replay += cost;
              batch_[static_cast<size_t>(n)] = e;
              batch_[static_cast<size_t>(n)].stream = best;
              ++n;
              ++next;
              if (e.kind == EventKind::kCheckpointBarrier) {
                barrier = true;
                break;
              }
            }
          }
          if (n == 0) break;
          for (int s = 0; s < num_inputs; ++s) {
            const int64_t k = taken_[static_cast<size_t>(s)];
            if (k > 0) inputs_[static_cast<size_t>(s)]->PopBatch(nullptr, k);
          }
          BatchClock clock(cycle_start_, consumed, cost);
          op.ProcessBatch(batch_.data(), n, clock, emitter);
          consumed = clock.consumed_micros();
          flush();
          processed += n;
          progressed = true;
        }
      }
      if (consumed + 0.01 > budget_micros_) {
        progressed = false;
        break;
      }
    }
  }
  if (audit_) {
    // Strict cycle-grained scheduling: the drain never overruns the armed
    // budget, and the drained queues' incremental accounting still matches
    // a full event walk (the batched paths are the likeliest drift source).
    KLINK_CHECK_LE(consumed, budget_micros_ + 1e-6);
    KLINK_CHECK_GE(processed, 0);
    // Only the swept range's queues: sibling shard lanes may be draining
    // concurrently on other slots, so their queues are not ours to walk.
    for (int i = begin; i < end; ++i) {
      const Operator& op = query.op(i);
      for (int s = 0; s < op.num_inputs(); ++s) {
        const StreamQueue& in = op.input(s);
        KLINK_CHECK_EQ(in.bytes(), in.AuditRecomputeBytes());
      }
    }
  }
  busy_micros_ += consumed;
  processed_events_ += processed;
  cycle_busy_micros_ += consumed;
  cycle_processed_events_ += processed;
  return consumed;
}

}  // namespace klink
