#include "src/event/stream_queue.h"

#include <algorithm>
#include <type_traits>

#include "src/common/check.h"

namespace klink {

// NewChunk hands out uninitialized storage and ChunkFree never runs a
// destructor: both are sound only while Event stays an implicit-lifetime,
// trivially copyable aggregate.
static_assert(std::is_aggregate_v<Event>);
static_assert(std::is_trivially_copyable_v<Event>);
static_assert(std::is_trivially_destructible_v<Event>);

void StreamQueue::AddBackChunk() {
  if (chunk_count_ == chunks_.size()) {
    // Full ring: move the in-use run, in order, into a ring twice the size.
    // O(chunk count) pointer moves, amortized over the pushes that filled
    // those chunks.
    std::vector<ChunkPtr> ring(
        std::max<size_t>(2, 2 * chunks_.size()));
    for (size_t i = 0; i < chunk_count_; ++i) {
      ring[i] = std::move(chunks_[RingSlot(i)]);
    }
    chunks_ = std::move(ring);
    chunk_head_ = 0;
  }
  ChunkPtr& slot = chunks_[RingSlot(chunk_count_)];
  slot = spare_ != nullptr ? std::move(spare_) : NewChunk();
  ++chunk_count_;
}

void StreamQueue::RetireFrontChunk() {
  ChunkPtr& front = chunks_[chunk_head_];
  if (spare_ == nullptr) {
    spare_ = std::move(front);
  } else {
    front.reset();
  }
  chunk_head_ = RingSlot(1);
  --chunk_count_;
  head_ = 0;
}

void StreamQueue::ReleaseChunks() {
  for (size_t i = 0; i < chunk_count_; ++i) {
    chunks_[RingSlot(i)].reset();
  }
  spare_.reset();
  chunk_head_ = 0;
  chunk_count_ = 0;
  head_ = 0;
}

void StreamQueue::Push(const Event& e) {
  const int64_t tail = head_ + size_;
  if (tail == static_cast<int64_t>(chunk_count_) * kChunkEvents) {
    AddBackChunk();
  }
  chunks_[ChunkIndexFor(tail)]->events[tail & (kChunkEvents - 1)] = e;
  ++size_;
  const int64_t delta = e.payload_bytes + kPerEventOverhead;
  bytes_ += delta;
  if (e.is_keyed_element()) ++data_count_;
  ReportDelta(delta);
}

void StreamQueue::PushBatch(const Event* events, int64_t n) {
  KLINK_CHECK_GE(n, 0);
  int64_t delta = 0;
  int64_t data = 0;
  int64_t i = 0;
  while (i < n) {
    const int64_t tail = head_ + size_;
    if (tail == static_cast<int64_t>(chunk_count_) * kChunkEvents) {
      AddBackChunk();
    }
    const int64_t offset = tail & (kChunkEvents - 1);
    const int64_t room = kChunkEvents - offset;
    const int64_t run = std::min(n - i, room);
    Event* dst = &chunks_[ChunkIndexFor(tail)]->events[offset];
    for (int64_t k = 0; k < run; ++k) {
      const Event& e = events[i + k];
      dst[k] = e;
      delta += e.payload_bytes + kPerEventOverhead;
      data += e.is_keyed_element() ? 1 : 0;
    }
    size_ += run;
    i += run;
  }
  bytes_ += delta;
  data_count_ += data;
  ReportDelta(delta);
}

Event StreamQueue::Pop() {
  KLINK_CHECK(size_ > 0);
  Event e = chunks_[chunk_head_]->events[head_];
  ++head_;
  --size_;
  if (size_ == 0) {
    ReleaseChunks();
  } else if (head_ == kChunkEvents) {
    RetireFrontChunk();
  }
  const int64_t delta = e.payload_bytes + kPerEventOverhead;
  bytes_ -= delta;
  if (e.is_keyed_element()) --data_count_;
  KLINK_DCHECK(bytes_ >= 0);
  ReportDelta(-delta);
  return e;
}

int64_t StreamQueue::PopBatch(Event* out, int64_t max_n) {
  KLINK_CHECK_GE(max_n, 0);
  const int64_t n = std::min(max_n, size_);
  int64_t delta = 0;
  int64_t data = 0;
  int64_t remaining = n;
  while (remaining > 0) {
    const int64_t run = std::min(remaining, kChunkEvents - head_);
    const Event* src = &chunks_[chunk_head_]->events[head_];
    for (int64_t k = 0; k < run; ++k) {
      delta += src[k].payload_bytes + kPerEventOverhead;
      data += src[k].is_keyed_element() ? 1 : 0;
    }
    if (out != nullptr) out = std::copy_n(src, run, out);
    head_ += run;
    remaining -= run;
    if (head_ == kChunkEvents) RetireFrontChunk();
  }
  size_ -= n;
  if (size_ == 0) ReleaseChunks();
  bytes_ -= delta;
  data_count_ -= data;
  KLINK_DCHECK(bytes_ >= 0);
  ReportDelta(-delta);
  return n;
}

const Event& StreamQueue::Front() const {
  KLINK_CHECK(size_ > 0);
  return chunks_[chunk_head_]->events[head_];
}

TimeMicros StreamQueue::OldestIngestTime() const {
  return size_ == 0 ? kNoTime : Front().ingest_time;
}

int64_t StreamQueue::AuditRecomputeBytes() const {
  int64_t total = 0;
  for (int64_t g = head_; g < head_ + size_; ++g) {
    const Event& e = chunks_[ChunkIndexFor(g)]->events[g & (kChunkEvents - 1)];
    total += e.payload_bytes + kPerEventOverhead;
  }
  return total;
}

int64_t StreamQueue::AuditRecomputeDataCount() const {
  int64_t data = 0;
  for (int64_t g = head_; g < head_ + size_; ++g) {
    const Event& e = chunks_[ChunkIndexFor(g)]->events[g & (kChunkEvents - 1)];
    if (e.is_keyed_element()) ++data;
  }
  return data;
}

void StreamQueue::Clear() {
  ReportDelta(-bytes_);
  ReleaseChunks();
  size_ = 0;
  bytes_ = 0;
  data_count_ = 0;
}

}  // namespace klink
