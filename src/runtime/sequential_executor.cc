#include "src/runtime/sequential_executor.h"

#include "src/common/check.h"

namespace klink {

SequentialExecutor::SequentialExecutor(int num_slots) {
  KLINK_CHECK_GE(num_slots, 1);
  contexts_.reserve(static_cast<size_t>(num_slots));
  for (int i = 0; i < num_slots; ++i) contexts_.emplace_back(i);
}

const ExecutionContext& SequentialExecutor::context(int slot) const {
  KLINK_CHECK(slot >= 0 && slot < num_slots());
  return contexts_[static_cast<size_t>(slot)];
}

CycleStats SequentialExecutor::ExecuteCycle(
    const std::vector<ExecutorTask>& tasks, double cost_multiplier,
    TimeMicros cycle_start) {
  KLINK_CHECK_LE(tasks.size(), contexts_.size());
  CycleStats stats;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const ExecutorTask& task = tasks[i];
    KLINK_CHECK(task.query != nullptr);
    // Each context drains its query through the batched hot path; the
    // batch scratch buffers live in the context, so reusing contexts_[i]
    // across cycles also reuses their allocations.
    ExecutionContext& ctx = contexts_[i];
    ctx.BeginCycle(task.budget_micros, cost_multiplier, cycle_start);
    // Slot order respects stage order (the engine publishes tasks sorted
    // by stage), so producer lanes run before the lanes they feed.
    ctx.RunQuery(*task.query, task.lane.begin, task.lane.end);
    stats.busy_micros += ctx.cycle_busy_micros();
    stats.processed_events += ctx.cycle_processed_events();
  }
  return stats;
}

}  // namespace klink
