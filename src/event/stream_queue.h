#ifndef KLINK_EVENT_STREAM_QUEUE_H_
#define KLINK_EVENT_STREAM_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/event/event.h"

namespace klink {

/// Receives memory-accounting deltas (in simulated bytes) as queues and
/// operator state grow and shrink. The Query binds one sink to each of its
/// operators so query-level memory usage is a running counter instead of a
/// per-cycle scan over every operator (see DESIGN.md "Hot path").
class MemoryDeltaSink {
 public:
  virtual ~MemoryDeltaSink() = default;
  virtual void OnMemoryDelta(int64_t delta_bytes) = 0;
};

/// FIFO input queue of an operator, with byte accounting for the memory
/// tracker. Events queue in arrival order; watermark/data ordering within
/// the queue is preserved, which enforces the SWM invariant that a window's
/// events are processed before the watermark that sweeps them (Sec. 2.2).
///
/// Storage is a chunked ring buffer: a circular list of fixed-size chunks
/// of `kChunkEvents` (a power of two, so in-chunk offsets reduce to a
/// mask). Memory follows the live events, not the queue's high-water mark:
/// a drained front chunk becomes the queue's single spare (reused by the
/// next chunk the tail needs), any further drained chunk is freed, and a
/// queue that drains to empty frees every chunk, the spare included. Under
/// a scheduler that runs a few of many queries per cycle, each queue peaks
/// at a different time, so retaining per-queue peaks would hold the sum of
/// all high-water marks rather than the live events (DESIGN.md "Hot path").
/// Batch transfers (`PushBatch`/`PopBatch`) move contiguous runs per chunk
/// and fold the byte/data-count accounting into one update per call
/// instead of one per element — the queue half of the batched hot path.
class StreamQueue {
 public:
  /// Fixed simulated per-element bookkeeping overhead in bytes.
  static constexpr int64_t kPerEventOverhead = 32;

  /// Events per chunk. Power of two: offsets use `& (kChunkEvents - 1)`.
  static constexpr int64_t kChunkEvents = 256;

  StreamQueue() = default;

  StreamQueue(StreamQueue&&) = default;
  StreamQueue& operator=(StreamQueue&&) = default;
  StreamQueue(const StreamQueue&) = delete;
  StreamQueue& operator=(const StreamQueue&) = delete;

  /// Appends an element.
  void Push(const Event& e);

  /// Appends `n` elements in order with one accounting update, setting
  /// each copy's `stream` to `stream` (the consuming input's index).
  void PushBatch(const Event* events, int64_t n, int stream);

  /// Removes and returns the front element. Requires !empty().
  Event Pop();

  /// Removes up to `max_n` front elements into `out` (in queue order) with
  /// one accounting update; a null `out` drops them. Returns the number of
  /// elements removed, which is min(max_n, size()).
  int64_t PopBatch(Event* out, int64_t max_n);

  /// Returns the front element without removing it. Requires !empty().
  const Event& Front() const;

  /// The contiguous run starting at the `i`-th element from the front:
  /// every element from there to the end of its chunk or of the queue (at
  /// most kChunkEvents), or an empty span when i == size(). Lets a
  /// consumer read elements in place, chunk by chunk, and drop them
  /// afterwards with PopBatch(nullptr, n). Valid until the next pop or
  /// Clear(); pushes never move stored elements. Requires 0 <= i <= size().
  std::span<const Event> RunAt(int64_t i) const {
    if (i == size_) return {};
    const int64_t g = head_ + i;
    const int64_t offset = g & (kChunkEvents - 1);
    return {&chunks_[ChunkIndexFor(g)]->events[offset],
            static_cast<size_t>(std::min(size_ - i, kChunkEvents - offset))};
  }

  /// Moves the first `n` elements to the back of `dst`, in order and
  /// stamped with stream 0, with one copy and one accounting pass for both
  /// queues: the same result as dst->PushBatch(them, n, 0) followed by
  /// PopBatch(nullptr, n). Requires 0 <= n <= size() and dst != this.
  void MoveFrontTo(StreamQueue* dst, int64_t n);

  /// Returns the `i`-th element from the front. Requires 0 <= i < size().
  const Event& At(int64_t i) const {
    const int64_t g = head_ + i;
    return chunks_[ChunkIndexFor(g)]->events[g & (kChunkEvents - 1)];
  }

  bool empty() const { return size_ == 0; }
  int64_t size() const { return size_; }

  /// Total simulated bytes held (payloads + fixed per-element overhead).
  int64_t bytes() const { return bytes_; }

  /// Ingestion time of the oldest queued element, or kNoTime when empty.
  /// Used by the FCFS policy.
  TimeMicros OldestIngestTime() const;

  /// Number of queued data (non-punctuation) elements.
  int64_t data_count() const { return data_count_; }

  /// Drops everything and frees every chunk.
  void Clear();

  /// Routes byte-accounting deltas (push/pop/clear) to `sink` in addition
  /// to the queue's own counter. Pass nullptr to unbind. The sink observes
  /// deltas only; the caller is responsible for seeding it with bytes()
  /// already held at bind time.
  void BindAccounting(MemoryDeltaSink* sink) { sink_ = sink; }

  /// Audit-mode support (KLINK_AUDIT=1, see runtime/audit.h): recomputes
  /// the byte total by walking every stored event, O(size). The invariant
  /// auditor compares this against the incremental bytes() counter to catch
  /// accounting drift in the batched push/pop paths.
  int64_t AuditRecomputeBytes() const;
  /// Same full walk for the data (non-punctuation) element count.
  int64_t AuditRecomputeDataCount() const;

 private:
  /// Lets the audit test plant accounting corruption to prove the auditor
  /// detects it. Test-only; production code must go through Push/Pop.
  friend class StreamQueueTestPeer;
  /// Chunks are allocated as raw storage, not value-initialized: Event is
  /// an implicit-lifetime aggregate, so the slots exist once allocated and
  /// each is written (Push/PushBatch) before the queue ever reads it. The
  /// queue reads only its live range [head_, head_ + size_). Skipping the
  /// initialization saves ~12 KB of stores per chunk, which queues that
  /// drain to empty every cycle pay on every refill.
  struct Chunk {
    Event events[kChunkEvents];
  };
  struct ChunkFree {
    // klink-lint: allow(raw-new-delete): frees NewChunk's raw storage
    void operator()(Chunk* c) const { ::operator delete(c); }
  };
  using ChunkPtr = std::unique_ptr<Chunk, ChunkFree>;
  static ChunkPtr NewChunk() {
    // klink-lint: allow(raw-new-delete): uninitialized chunk storage
    return ChunkPtr(static_cast<Chunk*>(::operator new(sizeof(Chunk))));
  }

  /// Ring slot (into chunks_) of the `i`-th chunk from the front.
  size_t RingSlot(size_t i) const {
    return (chunk_head_ + i) & (chunks_.size() - 1);
  }

  /// Ring slot of the chunk holding global element offset `g`, where g
  /// counts from the start of the front chunk.
  size_t ChunkIndexFor(int64_t g) const {
    return RingSlot(static_cast<size_t>(g / kChunkEvents));
  }

  /// Appends a chunk at the back of the in-use run: the spare if there is
  /// one, else a fresh allocation. Doubles the ring when it is full.
  void AddBackChunk();

  /// Retires the fully drained front chunk: it becomes the spare unless
  /// there already is one, in which case it is freed.
  void RetireFrontChunk();

  /// Frees every chunk, the spare included. Called when the queue empties.
  void ReleaseChunks();

  /// Appends `n` elements at the tail with `stream` set to `stream`,
  /// adding their byte and data counts to `*delta` and `*data`; the
  /// caller applies the accounting.
  void AppendRun(const Event* events, int64_t n, int stream, int64_t* delta,
                 int64_t* data);

  void ReportDelta(int64_t delta) {
    if (sink_ != nullptr && delta != 0) sink_->OnMemoryDelta(delta);
  }

  /// Ring of chunk slots, size zero or a power of two. The in-use chunks
  /// are the `chunk_count_` slots starting at chunk_head_ (circularly);
  /// every other slot is null.
  std::vector<ChunkPtr> chunks_;
  ChunkPtr spare_;
  size_t chunk_head_ = 0;   // chunks_ index of the chunk holding the front
  size_t chunk_count_ = 0;  // in-use chunks
  int64_t head_ = 0;        // front offset within the front chunk
  int64_t size_ = 0;
  int64_t bytes_ = 0;
  int64_t data_count_ = 0;
  MemoryDeltaSink* sink_ = nullptr;
};

}  // namespace klink

#endif  // KLINK_EVENT_STREAM_QUEUE_H_
