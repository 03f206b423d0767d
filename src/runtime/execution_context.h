#ifndef KLINK_RUNTIME_EXECUTION_CONTEXT_H_
#define KLINK_RUNTIME_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/query/query.h"

namespace klink {

/// Per-slot execution state: one ExecutionContext per task slot (worker).
/// The executor arms the context for each scheduling cycle (BeginCycle)
/// and then runs the slot's assigned query against the armed budget.
///
/// Threading contract: a context is owned by exactly one worker between
/// BeginCycle and the cycle barrier; the engine reads its counters only
/// after the barrier. Slot-parallel execution is safe because each Query
/// owns its operators and queues, so distinct queries share no mutable
/// state, and virtual time inside a slot depends only on that slot's own
/// consumption — which is what keeps both executor backends bit-identical.
class ExecutionContext {
 public:
  /// Receives one flushed batch of an edge leaving the drained range: the
  /// emitting operator's index, its outputs (their `stream` not yet set to
  /// the downstream input's index: the receiver stamps it from the edge),
  /// and the virtual time the batch finished.
  using Egress = std::function<void(int op_index,
                                    const std::vector<Event>& events,
                                    TimeMicros at)>;

  explicit ExecutionContext(int slot);

  /// Arms the slot for one scheduling cycle: the virtual-CPU budget, the
  /// memory-pressure cost multiplier, and the cycle's start of virtual
  /// time. Resets the per-cycle counters.
  void BeginCycle(double budget_micros, double cost_multiplier,
                  TimeMicros cycle_start);

  /// Drains `query` within the armed budget using repeated topological
  /// sweeps: a sweep cascades events downstream; leftover upstream work
  /// (budget permitting) is picked up by the next sweep. Returns the
  /// virtual micros consumed and updates the slot counters.
  ///
  /// Every operator drains through the batched path (ProcessBatch ->
  /// PopBatch -> buffered flush). Unary operators process the run at the
  /// front of their single input in place (StreamQueue::RunAt), so an
  /// element is never copied out of the queue it waited in; multi-input
  /// operators (joins) gather a batch in the scalar earliest-ingest
  /// interleave order, run by run across inputs, ending a batch after
  /// each checkpoint barrier. Both charge the identical
  /// per-element virtual-time sequence, so results are byte-identical to
  /// the scalar drain (DESIGN.md "Hot path";
  /// tests/multi_input_drain_test.cc keeps that drain as the oracle).
  ///
  /// The sweep covers operators [begin, end): the whole query, one lane of
  /// a sharded query (see Query::Lane), or the segment one node of a
  /// distributed deployment hosts. Distinct lanes of one query touch
  /// disjoint operators and queues (the partition pushes into shard queues
  /// only from its own stage-0 lane, which the executor orders before the
  /// shard lanes), so lanes run concurrently on distinct slots.
  ///
  /// Outputs of an edge that leaves the range go to the downstream queue,
  /// unless `egress` is given: then each flushed batch of them is handed
  /// to it instead (DistEngine's cross-node links).
  double RunQuery(Query& query, int begin, int end,
                  const Egress* egress = nullptr);

  int slot() const { return slot_; }
  double budget_micros() const { return budget_micros_; }
  double cost_multiplier() const { return cost_multiplier_; }

  /// Counters accumulated over the context's lifetime.
  double busy_micros() const { return busy_micros_; }
  int64_t processed_events() const { return processed_events_; }

  /// Counters for the most recent cycle (merged at the cycle barrier).
  double cycle_busy_micros() const { return cycle_busy_micros_; }
  int64_t cycle_processed_events() const { return cycle_processed_events_; }

 private:
  const int slot_;
  /// KLINK_AUDIT=1: RunQuery self-checks its budget and queue accounting at
  /// drain end (see runtime/audit.h). Sampled once at construction.
  const bool audit_;
  double budget_micros_ = 0.0;
  double cost_multiplier_ = 1.0;
  TimeMicros cycle_start_ = 0;
  double busy_micros_ = 0.0;
  int64_t processed_events_ = 0;
  double cycle_busy_micros_ = 0.0;
  int64_t cycle_processed_events_ = 0;
  /// Per-slot scratch buffers for the batched drain (a multi-input
  /// operator's gathered batch and buffered outputs). Slot-local, so
  /// thread-pool execution needs no synchronization around them.
  std::vector<Event> batch_;
  std::vector<Event> emit_scratch_;
  /// Input queues of the multi-input operator being drained (null while
  /// blocked on barrier alignment).
  std::vector<StreamQueue*> inputs_;
  /// Elements of each input read into the current batch.
  std::vector<int64_t> taken_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_EXECUTION_CONTEXT_H_
