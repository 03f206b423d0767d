#include "src/operators/source_operator.h"

#include <utility>

namespace klink {

SourceOperator::SourceOperator(std::string name, double cost_micros)
    : Operator(std::move(name), cost_micros, /*num_inputs=*/1) {}

void SourceOperator::OnData(const Event& e, TimeMicros /*now*/, Emitter& out) {
  last_network_delay_ = e.network_delay();
  EmitData(e, out);
}

void SourceOperator::ProcessBatch(const Event* events, int64_t n,
                                  BatchClock& clock, Emitter& out) {
  // Data runs forward whole; only the run's last element's delay survives
  // the scalar loop's per-element overwrites. Punctuation and corrections
  // take the scalar path.
  int64_t i = 0;
  while (i < n) {
    if (!events[i].is_data()) {
      Process(events[i], clock.Next(), out);
      ++i;
      continue;
    }
    int64_t j = i + 1;
    while (j < n && events[j].is_data()) ++j;
    clock.Advance(j - i);
    NoteDataProcessed(j - i);
    last_network_delay_ = events[j - 1].network_delay();
    EmitDataRun(events + i, j - i, out);
    i = j;
  }
}

}  // namespace klink
