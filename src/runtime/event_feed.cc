#include "src/runtime/event_feed.h"

#include "src/common/check.h"
#include "src/event/stream_queue.h"
#include "src/query/query.h"

namespace klink {

EventFeed::Delivery EventFeed::DeliverUpTo(TimeMicros now, int64_t max_bytes,
                                           Query& query) {
  // One per-thread scratch shared by all feeds (an engine ingests its
  // feeds one after another, so a feed per tenant need not keep its own).
  struct Scratch {
    std::vector<FeedElement> poll;
    /// Indexed by source; kept between calls for their allocations.
    std::vector<std::vector<Event>> runs;
  };
  thread_local Scratch scratch;
  scratch.poll.clear();
  PollUpTo(now, max_bytes, &scratch.poll);
  Delivery d;
  for (const FeedElement& fe : scratch.poll) {
    KLINK_CHECK_GE(fe.source_index, 0);
    const size_t i = static_cast<size_t>(fe.source_index);
    if (scratch.runs.size() <= i) scratch.runs.resize(i + 1);
    scratch.runs[i].push_back(fe.event);
    d.bytes += fe.event.payload_bytes + StreamQueue::kPerEventOverhead;
    if (fe.event.is_data()) ++d.data_events;
  }
  const auto& sources = query.sources();
  for (size_t i = 0; i < scratch.runs.size(); ++i) {
    std::vector<Event>& run = scratch.runs[i];
    if (run.empty()) continue;
    KLINK_CHECK_LT(i, sources.size());
    sources[i]->input(0).PushBatch(run.data(), static_cast<int64_t>(run.size()),
                                   /*stream=*/0);
    run.clear();
  }
  return d;
}

}  // namespace klink
