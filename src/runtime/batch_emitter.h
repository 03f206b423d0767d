#ifndef KLINK_RUNTIME_BATCH_EMITTER_H_
#define KLINK_RUNTIME_BATCH_EMITTER_H_

#include <cstdint>
#include <vector>

#include "src/event/stream_queue.h"
#include "src/operators/operator.h"

namespace klink {

/// Routes an operator's outputs into the downstream operator's input queue
/// one element at a time, tagging each element with the downstream
/// input-stream index. This is the pre-batching emitter; the drain loop now
/// uses BatchEmitter, but the scalar variant stays as the reference
/// implementation for equivalence tests and the hot-path microbenchmark.
class QueueEmitter final : public Emitter {
 public:
  QueueEmitter(StreamQueue* queue, int stream)
      : queue_(queue), stream_(stream) {}

  void Emit(const Event& e) override {
    if (queue_ == nullptr) return;  // sink: outputs leave the system
    Event routed = e;
    routed.stream = stream_;
    queue_->Push(routed);
  }

 private:
  StreamQueue* queue_;
  int stream_;
};

/// Emitter for the batched drain. A run (EmitRun) goes straight into the
/// downstream queue with one StreamQueue::PushBatch; single outputs
/// (Emit) accumulate in a borrowed scratch vector that Flush() appends
/// with one PushBatch, and a run flushes them first, so queue order is
/// emit order. PushBatch stamps each element with the downstream stream
/// index as it copies it. One byte/data-count accounting update per run
/// or flush instead of one per element. Order-equivalent to QueueEmitter
/// because the drain flushes before any downstream operator runs, and
/// operators never read their own output queue. With `direct_runs` false
/// runs are buffered too, unstamped, for an edge whose outputs are handed
/// off from the scratch instead of flushed (ExecutionContext::RunQuery's
/// egress).
class BatchEmitter final : public Emitter {
 public:
  BatchEmitter(StreamQueue* queue, int stream, std::vector<Event>* scratch,
               bool direct_runs = true)
      : queue_(queue),
        stream_(stream),
        scratch_(scratch),
        direct_runs_(direct_runs) {
    scratch_->clear();
  }

  void Emit(const Event& e) override {
    if (queue_ == nullptr) return;  // sink: outputs leave the system
    scratch_->push_back(e);
  }

  void EmitRun(const Event* events, int64_t n) override {
    if (queue_ == nullptr) return;
    if (direct_runs_) {
      Flush();
      queue_->PushBatch(events, n, stream_);
      return;
    }
    scratch_->insert(scratch_->end(), events, events + n);
  }

  /// Appends everything buffered to the downstream queue and resets the
  /// scratch. Must be called before the downstream operator is visited;
  /// the drain loop flushes after every ProcessBatch call, which also
  /// bounds the scratch at batch size x operator fan-out.
  void Flush() {
    if (queue_ == nullptr || scratch_->empty()) return;
    queue_->PushBatch(scratch_->data(), static_cast<int64_t>(scratch_->size()),
                      stream_);
    scratch_->clear();
  }

 private:
  StreamQueue* queue_;
  int stream_;
  std::vector<Event>* scratch_;
  bool direct_runs_;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_BATCH_EMITTER_H_
