#ifndef KLINK_OPERATORS_SOURCE_OPERATOR_H_
#define KLINK_OPERATORS_SOURCE_OPERATOR_H_

#include <cstdint>
#include <string>

#include "src/operators/operator.h"

namespace klink {

/// Ingress of a query. The engine deposits generated events (data,
/// watermarks, latency markers) into this operator's input queue at their
/// ingestion time; processing forwards them into the pipeline, charging
/// the per-event ingestion cost. Also exposes ingestion-side statistics
/// (network delays of recently ingested events) used by the runtime data
/// acquisition module.
class SourceOperator final : public Operator {
 public:
  SourceOperator(std::string name, double cost_micros);

  /// Network delay of the most recently processed data element, or -1.
  DurationMicros last_network_delay() const { return last_network_delay_; }

  /// Forwards each run of data elements with one EmitDataRun.
  void ProcessBatch(const Event* events, int64_t n, BatchClock& clock,
                    Emitter& out) override;

 protected:
  void OnData(const Event& e, TimeMicros now, Emitter& out) override;
  void SerializeState(StateWriter& w) const override {
    w.PutI64(last_network_delay_);
  }
  void RestoreState(StateReader& r) override {
    last_network_delay_ = r.GetI64();
  }

 private:
  DurationMicros last_network_delay_ = -1;
};

}  // namespace klink

#endif  // KLINK_OPERATORS_SOURCE_OPERATOR_H_
