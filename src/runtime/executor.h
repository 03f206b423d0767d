#ifndef KLINK_RUNTIME_EXECUTOR_H_
#define KLINK_RUNTIME_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/query/query.h"
#include "src/runtime/execution_context.h"

namespace klink {

/// Execution backends for the engine's task slots.
enum class ExecutorKind {
  /// Deterministic single-OS-thread backend: slots run one after another
  /// in slot order. The default, and the reference for determinism.
  kSequential,
  /// Real-thread backend: each slot runs on its own std::thread worker;
  /// a barrier at cycle end re-establishes the virtual clock. Same results
  /// as kSequential, less wall-clock time.
  kThreads,
};

const char* ExecutorKindName(ExecutorKind kind);

/// Parses "sequential" / "threads". Returns false on unknown names.
bool ParseExecutorKind(const std::string& s, ExecutorKind* out);

/// One slot's work for a cycle, resolved by the engine from the policy's
/// Selection: tasks[i] runs on slot i of the executor.
///
/// `lane` is the operator range the slot drains — the whole query, or one
/// lane of a sharded query — and its pipeline stage. The engine publishes
/// tasks sorted by stage (stable), and backends must not run a task before
/// every lower-stage task has finished: stage order is what keeps a shard
/// lane from racing the partition that feeds it or the merge that drains
/// it.
struct ExecutorTask {
  Query* query = nullptr;
  double budget_micros = 0.0;
  Query::Lane lane;
};

/// Per-cycle counters merged across slots at the cycle barrier. Backends
/// must accumulate slot-by-slot in slot order so the floating-point sums
/// are bit-identical regardless of which slot finishes first.
struct CycleStats {
  double busy_micros = 0.0;
  int64_t processed_events = 0;
};

/// Runs one scheduling cycle's slot assignments. The determinism contract:
/// given the same tasks and the same query state, every backend leaves the
/// queries in the same state and returns the same CycleStats. This holds
/// because tasks carry distinct (query, lane) units touching disjoint
/// operators and queues, stage order serializes producer lanes before
/// consumer lanes, and a slot's virtual time depends only on its own
/// consumption.
class Executor {
 public:
  virtual ~Executor() = default;

  virtual std::string name() const = 0;
  virtual int num_slots() const = 0;

  /// Per-slot execution state (cumulative busy/processed counters).
  virtual const ExecutionContext& context(int slot) const = 0;

  /// Executes tasks[i] on slot i with the cycle's cost multiplier and
  /// virtual start time, blocking until every slot reaches the barrier.
  /// tasks.size() must not exceed num_slots().
  virtual CycleStats ExecuteCycle(const std::vector<ExecutorTask>& tasks,
                                  double cost_multiplier,
                                  TimeMicros cycle_start) = 0;
};

std::unique_ptr<Executor> MakeExecutor(ExecutorKind kind, int num_slots);

}  // namespace klink

#endif  // KLINK_RUNTIME_EXECUTOR_H_
