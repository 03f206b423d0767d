#include "src/net/ingest_gateway.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <utility>

#include "src/common/check.h"
#include "src/query/query.h"
#include "src/runtime/audit.h"

namespace klink {
namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // klink-lint: allow(determinism): stall-time metrics of real TCP connections
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t StagedCost(const Event& e) {
  return e.payload_bytes + StreamQueue::kPerEventOverhead;
}

}  // namespace

IngestGateway::IngestGateway() : audit_(AuditEnabledFromEnv()) {}

void IngestGateway::AuditStream(const Stream& s) const {
  if (!audit_) return;
  // Staging ring buffer: incremental byte/data counters vs a full walk.
  KLINK_CHECK_EQ(s.staged.bytes(), s.staged.AuditRecomputeBytes());
  KLINK_CHECK_EQ(s.staged.data_count(), s.staged.AuditRecomputeDataCount());
  // Staged volume exceeds the budget by at most one event (the server
  // checks credit before staging each element frame).
  KLINK_CHECK_GE(s.staged.bytes(), 0);
}

void IngestGateway::RegisterStream(uint32_t stream_id,
                                   const IngestStreamConfig& config) {
  KLINK_CHECK_GT(config.byte_budget, 0);
  KLINK_CHECK_GT(config.resume_fraction, 0.0);
  KLINK_CHECK_LE(config.resume_fraction, 1.0);
  KLINK_CHECK(streams_.find(stream_id) == streams_.end());
  Stream& s = streams_[stream_id];
  s.id_ = stream_id;
  s.config = config;
}

bool IngestGateway::HasStream(uint32_t stream_id) const {
  return streams_.find(stream_id) != streams_.end();
}

IngestGateway::Stream& IngestGateway::Resolve(uint32_t stream_id) {
  auto it = streams_.find(stream_id);
  KLINK_CHECK(it != streams_.end());
  return it->second;
}

const IngestGateway::Stream& IngestGateway::GetStream(
    uint32_t stream_id) const {
  auto it = streams_.find(stream_id);
  KLINK_CHECK(it != streams_.end());
  return it->second;
}

bool IngestGateway::HasCredit(const Stream& s) const {
  return s.staged.bytes() < s.config.byte_budget;
}

IngestGateway::SeqDecision IngestGateway::AcceptSeq(Stream& s,
                                                    uint64_t seq) {
  if (seq == s.last_seq_received + 1) {
    s.last_seq_received = seq;
    return SeqDecision::kAccept;
  }
  if (seq <= s.last_seq_received) {
    ++s.duplicates;
    return SeqDecision::kDuplicate;
  }
  return SeqDecision::kGap;
}

void IngestGateway::Deliver(Stream& s, const Event& e) {
  s.staged.Push(e);
  s.run_through = e.ingest_time;
}

void IngestGateway::Flush(Stream& s) {
  if (s.run_through == kNoTime) return;
  // Clients send in ingestion order, so the run's last element's
  // ingest_time is the stream's arrival watermark.
  s.staged_through = std::max(s.staged_through, s.run_through);
  s.run_through = kNoTime;
  IngestStreamMetrics& m = metrics_.stream(s.id_);
  m.peak_staged_bytes = std::max(m.peak_staged_bytes, s.staged.bytes());
  AuditStream(s);
}

void IngestGateway::NoteStall(Stream& s) {
  if (s.stalled) return;
  s.stalled = true;
  s.stall_start_micros = WallMicros();
  ++metrics_.stream(s.id_).backpressure_stalls;
}

bool IngestGateway::TryResume(Stream& s) {
  if (!s.stalled) return true;
  const int64_t resume_below = static_cast<int64_t>(
      static_cast<double>(s.config.byte_budget) * s.config.resume_fraction);
  if (s.staged.bytes() >= resume_below) return false;
  s.stalled = false;
  metrics_.stream(s.id_).stall_micros +=
      WallMicros() - s.stall_start_micros;
  return true;
}

void IngestGateway::MarkEndOfStream(uint32_t stream_id) {
  Resolve(stream_id).ended = true;
}

TimeMicros IngestGateway::PeekIngestTime(uint32_t stream_id) const {
  return PeekIngestTime(GetStream(stream_id));
}

TimeMicros IngestGateway::PeekIngestTime(const Stream& s) const {
  return s.staged.OldestIngestTime();
}

IngestGateway::Run IngestGateway::DueRun(const Stream& s, TimeMicros through,
                                         int64_t max_bytes,
                                         int64_t* delivered) const {
  Run run;
  int64_t bytes = *delivered;
  // Chunk by chunk: a staged run can span many 256-element chunks.
  for (std::span<const Event> chunk = s.staged.RunAt(0); !chunk.empty();
       chunk = s.staged.RunAt(run.length)) {
    for (const Event& e : chunk) {
      if (e.ingest_time > through) {
        *delivered = bytes;
        return run;
      }
      const int64_t sz = StagedCost(e);
      if (bytes > 0 && bytes + sz > max_bytes) {
        run.budget_stop = true;
        *delivered = bytes;
        return run;
      }
      bytes += sz;
      ++run.length;
      if (e.is_data()) ++run.data_events;
    }
  }
  *delivered = bytes;
  return run;
}

void IngestGateway::PopRun(Stream& s, int64_t n, int source_index,
                           std::vector<EventFeed::FeedElement>* out) {
  for (int64_t i = 0; i < n;) {
    const std::span<const Event> chunk = s.staged.RunAt(i);
    const int64_t k = std::min(n - i, static_cast<int64_t>(chunk.size()));
    for (int64_t j = 0; j < k; ++j) {
      out->push_back(
          EventFeed::FeedElement{source_index, chunk[static_cast<size_t>(j)]});
    }
    i += k;
  }
  s.staged.PopBatch(nullptr, n);
  AdvanceCursor(s, n);
}

void IngestGateway::PopRun(Stream& s, int64_t n, StreamQueue* to) {
  s.staged.MoveFrontTo(to, n);
  AdvanceCursor(s, n);
}

void IngestGateway::AdvanceCursor(Stream& s, int64_t n) {
  // Seqs are contiguous and every accepted element passes through the
  // staging queue exactly once, so the delivered cursor advances by the
  // run length.
  s.delivered_seq += static_cast<uint64_t>(n);
  AuditStream(s);
}

uint64_t IngestGateway::last_seq_received(uint32_t stream_id) const {
  return GetStream(stream_id).last_seq_received;
}

uint64_t IngestGateway::delivered_seq(uint32_t stream_id) const {
  return GetStream(stream_id).delivered_seq;
}

int64_t IngestGateway::duplicate_events(uint32_t stream_id) const {
  return GetStream(stream_id).duplicates;
}

void IngestGateway::RestoreCursor(uint32_t stream_id, uint64_t seq) {
  Stream& s = Resolve(stream_id);
  KLINK_CHECK(s.staged.empty());  // rewind before serving, not mid-stream
  s.last_seq_received = seq;
  s.delivered_seq = seq;
}

int64_t IngestGateway::staged_bytes(uint32_t stream_id) const {
  return GetStream(stream_id).staged.bytes();
}

int64_t IngestGateway::staged_events(uint32_t stream_id) const {
  return GetStream(stream_id).staged.size();
}

int64_t IngestGateway::peak_staged_bytes(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.peak_staged_bytes;
}

bool IngestGateway::end_of_stream(uint32_t stream_id) const {
  return GetStream(stream_id).ended;
}

int64_t IngestGateway::data_events(uint32_t stream_id) const {
  auto it = metrics_.streams().find(stream_id);
  return it == metrics_.streams().end() ? 0 : it->second.data_events;
}

TimeMicros IngestGateway::StagedThrough(uint32_t stream_id) const {
  const Stream& s = GetStream(stream_id);
  if (s.ended) return std::numeric_limits<TimeMicros>::max();
  return s.staged_through;
}

NetworkFeed::NetworkFeed(IngestGateway* gateway,
                         std::vector<uint32_t> stream_ids)
    : gateway_(gateway) {
  KLINK_CHECK(gateway_ != nullptr);
  KLINK_CHECK(!stream_ids.empty());
  for (uint32_t id : stream_ids) {
    KLINK_CHECK(gateway_->HasStream(id));
    streams_.push_back(&gateway_->Resolve(id));
  }
}

template <typename Take>
int64_t NetworkFeed::MergeDue(TimeMicros now, int64_t max_bytes, Take&& take) {
  // Merge the feed's streams in ingestion order, delivering elements due
  // by `now` under the same byte-budget rule as SyntheticFeed::PollUpTo
  // (always at least one element, stop before exceeding the budget). The
  // merge takes runs: the stream with the earliest front (lower index on
  // ties) keeps the turn while its front still precedes every other
  // stream's, which is exactly the sequence a one-element-at-a-time merge
  // would pop. A lone stream's run is its whole due prefix.
  int64_t delivered = 0;
  while (true) {
    int best = -1;
    TimeMicros best_time = 0;
    int next = -1;  // runner-up: bounds best's run
    TimeMicros next_time = 0;
    for (size_t i = 0; i < streams_.size(); ++i) {
      const TimeMicros t = gateway_->PeekIngestTime(*streams_[i]);
      if (t == kNoTime || t > now) continue;
      if (best < 0 || t < best_time) {
        next = best;
        next_time = best_time;
        best = static_cast<int>(i);
        best_time = t;
      } else if (next < 0 || t < next_time) {
        next = static_cast<int>(i);
        next_time = t;
      }
    }
    if (best < 0) break;
    // best's run may include elements up to the runner-up's front time,
    // inclusive only when best wins the index tie-break.
    const TimeMicros through =
        next < 0 ? now : (best < next ? next_time : next_time - 1);
    IngestGateway::Stream& s = *streams_[static_cast<size_t>(best)];
    const IngestGateway::Run run =
        gateway_->DueRun(s, through, max_bytes, &delivered);
    if (run.length > 0) take(best, s, run);
    if (run.budget_stop) break;
  }
  return delivered;
}

void NetworkFeed::PollUpTo(TimeMicros now, int64_t max_bytes,
                           std::vector<FeedElement>* out) {
  MergeDue(now, max_bytes,
           [this, out](int i, IngestGateway::Stream& s,
                       const IngestGateway::Run& run) {
             gateway_->PopRun(s, run.length, i, out);
           });
}

EventFeed::Delivery NetworkFeed::DeliverUpTo(TimeMicros now,
                                             int64_t max_bytes, Query& query) {
  const auto& sources = query.sources();
  KLINK_CHECK_LE(streams_.size(), sources.size());
  Delivery d;
  d.bytes = MergeDue(
      now, max_bytes,
      [&](int i, IngestGateway::Stream& s, const IngestGateway::Run& run) {
        gateway_->PopRun(s, run.length,
                         &sources[static_cast<size_t>(i)]->input(0));
        d.data_events += run.data_events;
      });
  return d;
}

int64_t NetworkFeed::generated_events() const {
  int64_t n = 0;
  for (const IngestGateway::Stream* s : streams_) {
    n += gateway_->data_events(s->id());
  }
  return n;
}

TimeMicros NetworkFeed::SafeThrough() const {
  TimeMicros safe = std::numeric_limits<TimeMicros>::max();
  for (const IngestGateway::Stream* s : streams_) {
    safe = std::min(safe, gateway_->StagedThrough(s->id()));
  }
  return safe;
}

}  // namespace klink
