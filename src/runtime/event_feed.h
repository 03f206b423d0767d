#ifndef KLINK_RUNTIME_EVENT_FEED_H_
#define KLINK_RUNTIME_EVENT_FEED_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/event/event.h"

namespace klink {

class Query;

/// Produces the input stream(s) of one query: data events, periodic
/// watermarks and latency markers, already stamped with generation
/// (event-time) and ingestion timestamps. Plays the role of the workload
/// generator + Kafka in the paper's setup (Sec. 6.1): when the engine
/// exercises backpressure it simply stops polling and the backlog
/// accumulates inside the feed, exactly like an unconsumed Kafka topic.
///
/// Two entry points deliver the same elements: PollUpTo copies them out
/// as FeedElements (tests, load clients, wrapping feeds), DeliverUpTo
/// appends them straight into the query's source queues (the engines'
/// ingest path). A feed that overrides DeliverUpTo implements both from
/// one body.
class EventFeed {
 public:
  struct FeedElement {
    /// Index into Query::sources() of the target source operator.
    int source_index = 0;
    Event event;
  };

  /// What one DeliverUpTo call appended to the source queues.
  struct Delivery {
    /// Queue bytes added: payload plus StreamQueue::kPerEventOverhead per
    /// element, the measure the byte budget is stated in.
    int64_t bytes = 0;
    /// kData elements among them (the engine's ingested-events count).
    int64_t data_events = 0;
  };

  virtual ~EventFeed() = default;

  /// Appends elements with ingest_time <= now that were not yet delivered,
  /// in ingestion order, to `out`, stopping once the delivered payload
  /// would exceed `max_bytes` (the consumer's remaining buffer space —
  /// Kafka fetches are bounded by what the SPE can buffer). Never loses
  /// elements when polls are skipped or truncated (backpressure): delivery
  /// resumes where it stopped.
  virtual void PollUpTo(TimeMicros now, int64_t max_bytes,
                        std::vector<FeedElement>* out) = 0;

  /// Delivers exactly the elements PollUpTo(now, max_bytes) would return,
  /// appending each to the input queue of `query.sources()[source_index]`
  /// with `stream` set to 0 (source operators are unary), each source's
  /// elements in poll order. The default polls into a scratch vector and
  /// partitions it by source, one PushBatch per source; a feed overrides
  /// it where it can copy each element once, from its own storage into
  /// the queue (NetworkFeed).
  virtual Delivery DeliverUpTo(TimeMicros now, int64_t max_bytes,
                               Query& query);

  /// Total data events generated so far (diagnostics).
  virtual int64_t generated_events() const = 0;
};

}  // namespace klink

#endif  // KLINK_RUNTIME_EVENT_FEED_H_
