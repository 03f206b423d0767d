#ifndef KLINK_NET_INGEST_GATEWAY_H_
#define KLINK_NET_INGEST_GATEWAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"
#include "src/event/stream_queue.h"
#include "src/runtime/event_feed.h"
#include "src/runtime/metrics.h"

namespace klink {

/// Streams per query in the default stream-id numbering: connection stream
/// id = query_index * kStreamsPerQuery + source_index. A convention shared
/// by klink_run --listen and the loadgen tool, not a protocol constant —
/// any registration scheme works at the gateway level.
inline constexpr uint32_t kStreamsPerQuery = 8;

inline constexpr uint32_t MakeStreamId(int query_index, int source_index) {
  return static_cast<uint32_t>(query_index) * kStreamsPerQuery +
         static_cast<uint32_t>(source_index);
}

/// Buffering policy of one registered ingest stream.
struct IngestStreamConfig {
  /// Credit budget: once the staging queue holds this many (simulated)
  /// bytes, the connection feeding the stream stops being read.
  int64_t byte_budget = 4ll << 20;
  /// Reading resumes once the staging queue drains below
  /// byte_budget * resume_fraction (hysteresis, like the engine's
  /// memory-tracker backpressure).
  double resume_fraction = 0.5;
};

/// Bridges decoded wire frames into the engine: one staging StreamQueue
/// ring buffer per registered stream, filled element by element by the
/// IngestServer's decode path and drained a run at a time (DueRun +
/// PopRun) by a NetworkFeed on the engine side.
///
/// Credit-based backpressure (DESIGN.md "Network ingest"): the server asks
/// HasCredit() before decoding each element frame; when the staging queue
/// is over budget the connection is paused — its socket is no longer
/// polled for reads, so TCP flow control pushes back to the client — and
/// resumes via TryResume() once the engine drains the queue below the
/// resume threshold. A slow query therefore bounds its ingest memory at
/// byte_budget instead of OOMing the engine.
///
/// Single-threaded by design: the server poll loop and the engine cycle
/// loop run on the same thread (sockets, not threads, provide asynchrony).
class IngestGateway {
 public:
  IngestGateway();

  IngestGateway(const IngestGateway&) = delete;
  IngestGateway& operator=(const IngestGateway&) = delete;

  /// Registers a stream before serving. Stream ids are dense small
  /// integers by convention (MakeStreamId) but any uint32 works.
  void RegisterStream(uint32_t stream_id, const IngestStreamConfig& config);
  bool HasStream(uint32_t stream_id) const;

  /// Verdict on an element frame's per-stream sequence number.
  enum class SeqDecision {
    kAccept,     ///< next expected: stage it
    kDuplicate,  ///< already received (client replay overlap): drop silently
    kGap,        ///< skipped ahead: protocol violation, fail the connection
  };

  /// One registered stream's staging state, opaque outside the gateway.
  /// Streams are never unregistered and std::map nodes do not move, so a
  /// handle from Resolve() stays valid for the gateway's lifetime: the
  /// decode and drain paths resolve a stream id once per connection or
  /// feed instead of once per element.
  class Stream {
   public:
    uint32_t id() const { return id_; }

   private:
    friend class IngestGateway;
    uint32_t id_ = 0;
    IngestStreamConfig config;
    StreamQueue staged;
    TimeMicros staged_through = 0;
    /// ingest_time of the last element staged since the last Flush, or
    /// kNoTime when the current run is empty.
    TimeMicros run_through = kNoTime;
    bool stalled = false;
    int64_t stall_start_micros = 0;  // wall clock
    bool ended = false;
    uint64_t last_seq_received = 0;  // highest accepted (0 = none yet)
    uint64_t delivered_seq = 0;      // last seq popped by the engine
    int64_t duplicates = 0;          // replayed frames dropped by dedup
  };

  /// The handle of registered stream `stream_id` (CHECK-fails otherwise).
  Stream& Resolve(uint32_t stream_id);

  /// ---- decode path (called by IngestServer) --------------------------
  /// True while the stream's staged bytes are under budget.
  bool HasCredit(const Stream& s) const;
  /// Admits or rejects an element frame by its sequence number. Seqs are
  /// client-assigned, contiguous from 1 per stream; after a reconnect the
  /// client replays its unacked tail, so overlaps are expected (dropped as
  /// duplicates) while gaps can only mean a broken client.
  SeqDecision AcceptSeq(Stream& s, uint64_t seq);
  /// Stages one decoded element straight into the staging ring buffer.
  void Deliver(Stream& s, const Event& e);
  /// Ends the run of elements delivered since the last Flush: advances the
  /// stream's arrival watermark to the run's last element and records the
  /// peak staged volume.
  void Flush(Stream& s);
  /// Records that the stream's connection was paused for lack of credit.
  void NoteStall(Stream& s);
  /// True (ending the stall-time interval) once the staging queue has
  /// drained below the resume threshold, so the server may read again.
  bool TryResume(Stream& s);
  /// Graceful end-of-stream (kBye received or connection closed cleanly).
  void MarkEndOfStream(uint32_t stream_id);

  /// ---- drain path (called by NetworkFeed on the engine thread) -------
  /// Ingest time of the oldest staged element, or kNoTime when empty.
  TimeMicros PeekIngestTime(uint32_t stream_id) const;
  TimeMicros PeekIngestTime(const Stream& s) const;
  /// A due run at the front of a stream's staging queue (see DueRun).
  struct Run {
    int64_t length = 0;
    /// kData elements among them.
    int64_t data_events = 0;
    /// True when the byte rule, not the run's end, cut the run.
    bool budget_stop = false;
  };
  /// Measures the stream's longest front run of elements with ingest_time
  /// <= `through` under the EventFeed byte rule: `*delivered` counts the
  /// poll's bytes so far (and grows by the run's), and an element is taken
  /// only while the poll is empty or it still fits `max_bytes`. Pops
  /// nothing; hand the run's length to one of the PopRun overloads.
  Run DueRun(const Stream& s, TimeMicros through, int64_t max_bytes,
             int64_t* delivered) const;
  /// Pops the stream's first `n` staged elements, copying them to `out`
  /// tagged with `source_index`...
  void PopRun(Stream& s, int64_t n, int source_index,
              std::vector<EventFeed::FeedElement>* out);
  /// ...or moving them into `to` (StreamQueue::MoveFrontTo), the only copy
  /// between the socket's decode and the source operator. Both advance
  /// the replay cursor: this is the only place it moves.
  void PopRun(Stream& s, int64_t n, StreamQueue* to);

  int64_t staged_bytes(uint32_t stream_id) const;
  int64_t staged_events(uint32_t stream_id) const;
  /// Largest staged_bytes ever observed (backpressure bound checks).
  int64_t peak_staged_bytes(uint32_t stream_id) const;
  bool end_of_stream(uint32_t stream_id) const;
  /// Data events decoded for the stream so far.
  int64_t data_events(uint32_t stream_id) const;

  /// ---- exactly-once bookkeeping --------------------------------------
  /// Highest sequence number accepted from the stream's connection.
  uint64_t last_seq_received(uint32_t stream_id) const;
  /// Sequence number of the last element handed to the engine (PopRun).
  /// Sampled by the checkpoint coordinator at barrier injection: it is the
  /// stream's replay cursor (everything <= it is pre-barrier).
  uint64_t delivered_seq(uint32_t stream_id) const;
  /// Replayed frames dropped by dedup so far.
  int64_t duplicate_events(uint32_t stream_id) const;
  /// Recovery: rewinds the stream's cursors to a restored checkpoint's
  /// cursor. The next acceptable frame is seq + 1; the reconnecting client
  /// learns this via HELLO_ACK and replays from there.
  void RestoreCursor(uint32_t stream_id, uint64_t seq);

  /// Arrival progress: every element with ingest_time <= StagedThrough()
  /// has been staged (clients send in ingestion order, so the last staged
  /// ingest_time is a watermark over the TCP stream). INT64_MAX once the
  /// stream ended. Deterministic replays (tests, loadgen --lockstep) use
  /// this to advance virtual time only through fully-arrived prefixes.
  TimeMicros StagedThrough(uint32_t stream_id) const;

  IngestMetrics& metrics() { return metrics_; }
  const IngestMetrics& metrics() const { return metrics_; }

 private:
  const Stream& GetStream(uint32_t stream_id) const;

  /// Advances the stream's replay cursor past `n` elements PopRun handed
  /// over.
  void AdvanceCursor(Stream& s, int64_t n);

  /// KLINK_AUDIT=1: cross-checks one stream's staging accounting (ring
  /// buffer bytes and data count vs full recompute) at run and drain
  /// boundaries. No-op when auditing is off.
  void AuditStream(const Stream& s) const;

  std::map<uint32_t, Stream> streams_;
  IngestMetrics metrics_;
  /// Sampled from KLINK_AUDIT once at construction (see runtime/audit.h).
  const bool audit_;
};

/// EventFeed over gateway streams: the engine ingests network arrivals
/// through the exact interface the synthetic in-process feeds use, so
/// scheduling, backpressure, and memory accounting are oblivious to where
/// events come from. Elements are delivered in ingestion order (merged
/// across the feed's streams), gated on ingest_time <= now — an element
/// that arrived early waits; one that arrives late (real network delay)
/// is picked up by the next cycle, which is precisely the asynchrony
/// Klink's slack computation runs against.
class NetworkFeed final : public EventFeed {
 public:
  /// `stream_ids[i]` feeds the query's source operator i.
  NetworkFeed(IngestGateway* gateway, std::vector<uint32_t> stream_ids);

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override;
  /// Moves each due run from its staging queue into the source queue.
  Delivery DeliverUpTo(TimeMicros now, int64_t max_bytes,
                       Query& query) override;
  int64_t generated_events() const override;

  /// Min arrival progress across this feed's streams (see
  /// IngestGateway::StagedThrough).
  TimeMicros SafeThrough() const;

 private:
  /// The merge both entry points share: hands each due run, in merge
  /// order, to `take(stream index, stream, run)`, which must pop it.
  /// Returns the bytes delivered.
  template <typename Take>
  int64_t MergeDue(TimeMicros now, int64_t max_bytes, Take&& take);

  IngestGateway* gateway_;
  std::vector<IngestGateway::Stream*> streams_;  // resolved once
};

}  // namespace klink

#endif  // KLINK_NET_INGEST_GATEWAY_H_
