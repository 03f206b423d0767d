// perfbench_driver: the benchmark's own reproduction of the perfbench
// workloads on libklink. run.py times the user-facing binaries (klink_run,
// klink_run --listen --lockstep); this driver supplies what they cannot:
//
//   --mode=inproc   an in-process experiment, step for step what
//                   `klink_run` runs (RunExperiment), printing the same
//                   Results table plus exact counts and quantiles.
//                   --trace=1 wraps each layer's public calls in timers.
//   --mode=listen-ref
//                   the in-process equivalent of a blast-fed
//                   `klink_run --listen --lockstep` run: same queries, the
//                   client's feeds capped at --duration, drained to empty.
//                   Its results_hash is what the TCP run must reproduce.
//   --mode=serve    the lockstep TCP server loop of klink_run, with the
//                   layer timers (the traced TCP run).
//   --mode=client   the TCP load client: generates every query's feed in
//                   set-up, prints "ready", then replays the stored feed
//                   through LoadgenConnection once per "go PORT" line read
//                   from stdin, on at most two threads.
//   --mode=decode   times DecodeFrame over the encoded stream of query 0.
//
// Results go to stdout as "BENCH {json}" lines that run.py parses (one at
// the end of a run; the client prints one per session). Layer timers use
// std::chrono::steady_clock and live only here: the library is unmodified,
// so spans inside the engine are not visible and engine self time is
// RunUntil minus the wrapped calls nested in it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"
#include "src/harness/experiment.h"
#include "src/harness/reporter.h"
#include "src/klink/klink_policy.h"
#include "src/net/ingest_gateway.h"
#include "src/net/ingest_server.h"
#include "src/net/loadgen.h"
#include "src/net/wire.h"
#include "src/runtime/engine.h"
#include "src/workloads/lrb.h"
#include "src/workloads/ysb.h"

namespace {

using namespace klink;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the process (RUSAGE_SELF) or the calling thread.
double CpuSeconds(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Minimal JSON object writer for the BENCH line.
class JsonLine {
 public:
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const char* key, int64_t v) { Raw(key, std::to_string(v)); }
  // Appends piecewise: gcc 12 reports a false -Werror=restrict on
  // `"literal" + std::string` at -O2/-O3.
  void Raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_.append(",");
    body_.append("\"").append(key).append("\":").append(v);
  }
  void Print() const { std::printf("BENCH {%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

/// Wall time spent in each layer's public calls, filled by the decorators
/// below and by the timed loops of the traced modes.
struct LayerTimes {
  int64_t feed_ns = 0;  // SyntheticFeed::PollUpTo
  int64_t feed_data = 0;
  int64_t net_feed_ns = 0;  // NetworkFeed::PollUpTo
  int64_t net_feed_data = 0;
  int64_t select_ns = 0;  // SchedulingPolicy::SelectQueries
  int64_t eval_ns = 0;    // SchedulingPolicy::EvaluationCostMicros
  int64_t select_calls = 0;
  int64_t slots_offered = 0;
  int64_t slots_filled = 0;
  int64_t snapshot_queries = 0;
  double modelled_us = 0.0;
  int64_t cycle_select_ns = 0;  // SelectQueries time of the current cycle
  std::vector<int64_t> select_ns_per_cycle;
  int64_t run_ns = 0;  // Engine::RunUntil, one cycle per call
  int64_t cycles = 0;
  int64_t poll_ns = 0;  // IngestServer::PollOnce
};

/// Times a policy's public calls; selection is delegated unchanged.
class TimedPolicy final : public SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<SchedulingPolicy> inner, LayerTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  std::string name() const override { return inner_->name(); }

  void SelectQueries(const RuntimeSnapshot& snapshot, int slots,
                     Selection* out) override {
    const size_t before = out->size();
    const int64_t t0 = NowNs();
    inner_->SelectQueries(snapshot, slots, out);
    const int64_t dt = NowNs() - t0;
    times_->select_ns += dt;
    times_->cycle_select_ns += dt;
    ++times_->select_calls;
    times_->slots_offered += slots;
    times_->slots_filled += static_cast<int64_t>(out->size() - before);
    times_->snapshot_queries += static_cast<int64_t>(snapshot.queries.size());
  }

  double EvaluationCostMicros(const RuntimeSnapshot& snapshot) override {
    const int64_t t0 = NowNs();
    const double cost = inner_->EvaluationCostMicros(snapshot);
    times_->eval_ns += NowNs() - t0;
    times_->modelled_us += cost;
    return cost;
  }

 private:
  std::unique_ptr<SchedulingPolicy> inner_;
  LayerTimes* times_;
};

/// Times a feed's PollUpTo; `network` picks the layer it is charged to.
class TimedFeed final : public EventFeed {
 public:
  TimedFeed(std::unique_ptr<EventFeed> inner, bool network, LayerTimes* times)
      : inner_(std::move(inner)), network_(network), times_(times) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    const size_t before = out->size();
    const int64_t t0 = NowNs();
    inner_->PollUpTo(now, max_bytes, out);
    const int64_t dt = NowNs() - t0;
    int64_t data = 0;
    for (size_t i = before; i < out->size(); ++i) {
      if ((*out)[i].event.is_data()) ++data;
    }
    (network_ ? times_->net_feed_ns : times_->feed_ns) += dt;
    (network_ ? times_->net_feed_data : times_->feed_data) += data;
  }

  int64_t generated_events() const override {
    return inner_->generated_events();
  }

 private:
  std::unique_ptr<EventFeed> inner_;
  bool network_;
  LayerTimes* times_;
};

/// A load client's feed as the server sees it: only elements with
/// ingest_time <= until exist. Holds one element of lookahead so the
/// reference drain can ask whether anything is still due, exactly like the
/// TCP server counts gateway-staged elements. Delivery keeps the
/// EventFeed byte rule (at least one element, stop before the budget).
class CappedFeed final : public EventFeed {
 public:
  CappedFeed(std::unique_ptr<EventFeed> inner, TimeMicros until)
      : inner_(std::move(inner)), until_(until) {}

  void PollUpTo(TimeMicros now, int64_t max_bytes,
                std::vector<FeedElement>* out) override {
    int64_t delivered = 0;
    while (Fill(std::min(now, until_)) && head_->event.ingest_time <= now) {
      const int64_t sz =
          head_->event.payload_bytes + StreamQueue::kPerEventOverhead;
      if (delivered > 0 && delivered + sz > max_bytes) break;
      delivered += sz;
      out->push_back(*head_);
      head_.reset();
    }
  }

  int64_t generated_events() const override {
    return inner_->generated_events();
  }

  /// True while an element with ingest_time <= until is undelivered.
  bool Pending() { return Fill(until_); }

 private:
  bool Fill(TimeMicros horizon) {
    if (head_.has_value()) return true;
    scratch_.clear();
    inner_->PollUpTo(horizon, 0, &scratch_);  // yields at most one element
    if (scratch_.empty()) return false;
    head_ = scratch_.front();
    return true;
  }

  std::unique_ptr<EventFeed> inner_;
  TimeMicros until_;
  std::optional<FeedElement> head_;
  std::vector<FeedElement> scratch_;
};

/// Quantile with linear interpolation inside the histogram's log bucket.
/// Histogram::Quantile returns the bucket midpoint, which pins a metric to
/// one of ~64 values per octave; interpolating keeps small shifts visible.
/// The bucket layout is read back through Serialize and cross-checked
/// against Quantile, so a layout change fails loudly instead of skewing.
double InterpolatedQuantile(const Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  StateWriter w;
  h.Serialize(w);
  StateReader r(w.bytes());
  const uint64_t n = r.GetU64();
  std::vector<int64_t> buckets(static_cast<size_t>(n));
  for (int64_t& b : buckets) b = r.GetI64();
  KLINK_CHECK(r.ok());
  const auto bounds = [](size_t index) -> std::pair<int64_t, int64_t> {
    if (index < 64) return {static_cast<int64_t>(index), 1};
    const size_t rel = index - 64;
    const int pow = static_cast<int>(rel / 64) + 6;
    const int64_t sub = static_cast<int64_t>(rel % 64);
    return {(int64_t{1} << pow) + (sub << (pow - 6)), int64_t{1} << (pow - 6)};
  };
  // The same rank rule as Histogram::Quantile, for the cross-check.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(h.count()) + 0.5));
  const double rank = std::max(1.0, q * static_cast<double>(h.count()));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= target) {
      const auto [lo, width] = bounds(i);
      const int64_t mid = std::clamp(lo + width / 2, h.min(), h.max());
      KLINK_CHECK_EQ(mid, h.Quantile(q));
      const double frac = std::clamp(
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[i]),
          0.0, 1.0);
      const double v = static_cast<double>(lo) + frac * static_cast<double>(width);
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += buckets[i];
  }
  return static_cast<double>(h.max());
}

/// Adds the layer figures of a traced run to the BENCH line.
void AddLayerJson(const LayerTimes& t, int64_t wall_ns,
                  int64_t processed_events, JsonLine* j) {
  const int64_t nested = t.feed_ns + t.net_feed_ns + t.select_ns + t.eval_ns;
  j->Int("wall_ns", wall_ns);
  j->Int("feed_ns", t.feed_ns);
  j->Int("feed_data", t.feed_data);
  j->Int("net_feed_ns", t.net_feed_ns);
  j->Int("net_feed_data", t.net_feed_data);
  j->Int("select_ns", t.select_ns);
  j->Int("eval_ns", t.eval_ns);
  j->Int("select_calls", t.select_calls);
  j->Int("slots_offered", t.slots_offered);
  j->Int("slots_filled", t.slots_filled);
  j->Int("snapshot_queries", t.snapshot_queries);
  j->Num("modelled_us", t.modelled_us);
  j->Int("run_ns", t.run_ns);
  j->Int("self_ns", t.run_ns - nested);
  j->Int("cycles", t.cycles);
  j->Int("poll_ns", t.poll_ns);
  j->Int("processed_events", processed_events);
  std::string cycles = "[";
  for (size_t i = 0; i < t.select_ns_per_cycle.size(); ++i) {
    if (i > 0) cycles.append(",");
    cycles.append(std::to_string(t.select_ns_per_cycle[i]));
  }
  j->Raw("select_ns_per_cycle", cycles.append("]"));
}

/// Runs exactly one engine cycle, timing it when `times` is set.
void RunOneCycle(Engine& engine, TimeMicros end, LayerTimes* times) {
  if (times == nullptr) {
    engine.RunUntil(end);
    return;
  }
  times->cycle_select_ns = 0;
  const int64_t t0 = NowNs();
  engine.RunUntil(end);
  times->run_ns += NowNs() - t0;
  ++times->cycles;
  times->select_ns_per_cycle.push_back(times->cycle_select_ns);
}

struct WorkloadFlags {
  WorkloadKind workload = WorkloadKind::kYsb;
  int queries = 0;
  double rate = 0.0;
  DurationMicros duration = 0;
  DurationMicros warmup = 0;
  EngineConfig engine;
  uint64_t seed = 1;
};

WorkloadFlags ParseWorkloadFlags(const FlagParser& f) {
  WorkloadFlags w;
  const std::string name = f.GetString("workload", "ysb");
  KLINK_CHECK(name == "ysb" || name == "lrb");
  w.workload = name == "ysb" ? WorkloadKind::kYsb : WorkloadKind::kLrb;
  w.queries = static_cast<int>(f.GetInt("queries", 1));
  w.rate = f.GetDouble("rate", 1000.0);
  w.duration = SecondsToMicros(f.GetInt("duration", 10));
  w.warmup = SecondsToMicros(f.GetInt("warmup", 0));
  w.engine.num_cores = static_cast<int>(f.GetInt("cores", 8));
  w.engine.memory_capacity_bytes = f.GetInt("memory-mb", 16) << 20;
  w.seed = static_cast<uint64_t>(f.GetInt("seed", 1));
  KLINK_CHECK_GE(w.queries, 1);
  return w;
}

std::unique_ptr<SchedulingPolicy> MakeKlink(const WorkloadFlags& w) {
  KlinkPolicyConfig kc;
  kc.confidence = 0.95;
  kc.cycle_length = w.engine.cycle_length;
  return MakePolicy(PolicyKind::kKlink, kc, w.seed ^ 0x5eedULL);
}


/// `klink_run` in-process (RunExperiment), one cycle per RunUntil.
int RunInproc(const FlagParser& f) {
  const WorkloadFlags w = ParseWorkloadFlags(f);
  KLINK_CHECK_GT(w.duration, w.warmup);
  const bool trace = f.GetBool("trace", false);
  LayerTimes times;
  LayerTimes* tp = trace ? &times : nullptr;

  std::unique_ptr<SchedulingPolicy> policy = MakeKlink(w);
  KlinkPolicy* klink_policy = dynamic_cast<KlinkPolicy*>(policy.get());
  if (trace) policy = std::make_unique<TimedPolicy>(std::move(policy), tp);
  Engine engine(w.engine, std::move(policy));
  const DurationMicros deploy_spread = ExperimentConfig{}.deploy_spread;
  const DurationMicros lag = WatermarkLagFor(DelayKind::kUniform);
  Rng rng(w.seed);
  for (int q = 0; q < w.queries; ++q) {
    const TimeMicros deploy = rng.NextInt(0, deploy_spread);
    const uint64_t feed_seed = rng.NextUint64();
    std::unique_ptr<Query> query;
    std::unique_ptr<EventFeed> feed;
    if (w.workload == WorkloadKind::kYsb) {
      YsbConfig wc;
      wc.events_per_second = w.rate;
      wc.watermark_lag = lag;
      wc.window_offset = rng.NextInt(0, wc.window_size - 1);
      query = MakeYsbQuery(q, wc);
      feed = MakeYsbFeed(wc, MakeDelayModel(DelayKind::kUniform), feed_seed,
                         deploy);
    } else {
      LrbConfig wc;
      wc.events_per_substream_per_second = w.rate;
      wc.watermark_lag = lag;
      wc.window_offset = rng.NextInt(0, wc.join_window - 1);
      query = MakeLrbQuery(q, wc);
      feed = MakeLrbFeed(wc, MakeDelayModel(DelayKind::kUniform), feed_seed,
                         deploy);
    }
    if (trace) feed = std::make_unique<TimedFeed>(std::move(feed), false, tp);
    engine.AddQuery(std::move(query), std::move(feed), deploy);
  }

  const DurationMicros cycle = w.engine.cycle_length;
  const int64_t run_start = NowNs();
  while (engine.now() < w.warmup) {
    RunOneCycle(engine, engine.now() + cycle, tp);
  }
  for (int q = 0; q < engine.num_queries(); ++q) {
    engine.query(q).sink().ResetStats();
  }
  const int64_t processed_at_warmup = engine.metrics().processed_events();
  const double busy_at_warmup = engine.metrics().core_busy_micros();
  const double sched_at_warmup = engine.metrics().scheduler_micros();
  while (engine.now() < w.duration) {
    RunOneCycle(engine, engine.now() + cycle, tp);
  }
  const int64_t run_ns = NowNs() - run_start;

  // klink_run's Results table, row for row (RunExperiment's arithmetic).
  const Histogram latency = engine.AggregateSwmLatency();
  const double throughput =
      static_cast<double>(engine.metrics().processed_events() -
                          processed_at_warmup) /
      MicrosToSeconds(w.duration - w.warmup);
  const double busy = engine.metrics().core_busy_micros() - busy_at_warmup;
  const double sched = engine.metrics().scheduler_micros() - sched_at_warmup;
  double cpu_sum = 0.0, mem_sum = 0.0;
  int64_t samples = 0;
  for (const ResourceSample& s : engine.metrics().samples()) {
    if (s.time < w.warmup) continue;
    cpu_sum += s.cpu_utilization;
    mem_sum += static_cast<double>(s.memory_bytes);
    ++samples;
  }
  const double n = samples == 0 ? 1.0 : static_cast<double>(samples);
  const auto pct = [&latency](double p) {
    return TableReporter::Num(
        static_cast<double>(latency.Percentile(p)) / 1e6, 3);
  };
  TableReporter table("Results");
  table.SetHeader({"metric", "value"});
  table.AddRow({"mean latency (s)", TableReporter::Num(latency.mean() / 1e6, 3)});
  table.AddRow({"p50 latency (s)", pct(50)});
  table.AddRow({"p90 latency (s)", pct(90)});
  table.AddRow({"p99 latency (s)", pct(99)});
  table.AddRow({"throughput (op-events/s)", TableReporter::Num(throughput, 0)});
  table.AddRow({"slowdown", TableReporter::Num(engine.MeanSlowdown(), 0)});
  table.AddRow({"mean CPU (%)", TableReporter::Num(cpu_sum / n * 100.0, 1)});
  table.AddRow({"mean memory (MB)",
                TableReporter::Num(mem_sum / n / 1048576.0, 1)});
  table.AddRow(
      {"peak memory (MB)",
       TableReporter::Num(
           static_cast<double>(engine.memory().peak_bytes()) / 1048576.0, 1)});
  table.AddRow({"scheduler overhead (%)",
                TableReporter::Num(
                    (busy + sched) <= 0.0 ? 0.0 : sched / (busy + sched) * 100.0,
                    3)});
  if (klink_policy->total_predictions() > 0) {
    table.AddRow({"SWM estimation accuracy (%)",
                  TableReporter::Num(klink_policy->EstimatorAccuracy() * 100.0,
                                     1)});
    table.AddRow({"SWM estimation MAE (s)",
                  TableReporter::Num(
                      klink_policy->EstimatorMeanAbsErrorMicros() / 1e6, 3)});
  }
  table.Print();

  JsonLine j;
  j.Int("ingested", engine.metrics().ingested_events());
  j.Int("swm_count", latency.count());
  j.Num("swm_p50_s", InterpolatedQuantile(latency, 0.50) / 1e6);
  j.Num("swm_p99_s", InterpolatedQuantile(latency, 0.99) / 1e6);
  j.Num("slowdown", engine.MeanSlowdown());
  j.Num("vthroughput_eps", throughput);
  if (trace) {
    AddLayerJson(times, run_ns, engine.metrics().processed_events(), &j);
  }
  j.Print();
  return 0;
}

/// ---- TCP workload (YSB only) -------------------------------------------

/// The per-query feed seeds of the load client (loadgen's rng stream).
std::vector<uint64_t> ClientFeedSeeds(const WorkloadFlags& w) {
  Rng rng(w.seed);
  std::vector<uint64_t> seeds;
  for (int q = 0; q < w.queries; ++q) seeds.push_back(rng.NextUint64());
  return seeds;
}

/// Query q's feed exactly as loadgen builds it (generation from t = 0).
std::unique_ptr<EventFeed> MakeClientFeed(const WorkloadFlags& w,
                                          uint64_t feed_seed) {
  YsbConfig wc;
  wc.events_per_second = w.rate;
  wc.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
  return MakeYsbFeed(wc, MakeDelayModel(DelayKind::kUniform), feed_seed, 0);
}

/// The queries of `klink_run --listen` (its rng stream: a feed seed the
/// server skips, then the window offset), deployed at t = 0.
std::vector<std::unique_ptr<Query>> MakeListenQueries(const WorkloadFlags& w) {
  KLINK_CHECK(w.workload == WorkloadKind::kYsb);
  Rng rng(w.seed);
  std::vector<std::unique_ptr<Query>> queries;
  for (int q = 0; q < w.queries; ++q) {
    (void)rng.NextUint64();
    YsbConfig wc;
    wc.events_per_second = w.rate;
    wc.watermark_lag = WatermarkLagFor(DelayKind::kUniform);
    wc.window_offset = rng.NextInt(0, YsbConfig{}.window_size - 1);
    queries.push_back(MakeYsbQuery(q, wc));
  }
  return queries;
}

/// klink_run's "Results (TCP ingest)" table and results_hash lines.
void PrintListenResults(const Engine& engine, const std::vector<QueryId>& ids,
                        DurationMicros duration) {
  const Histogram latency = engine.AggregateSwmLatency();
  TableReporter table("Results (TCP ingest)");
  table.SetHeader({"metric", "value"});
  table.AddRow({"mean latency (s)", TableReporter::Num(latency.mean() / 1e6, 3)});
  table.AddRow({"p50 latency (s)",
                TableReporter::Num(
                    static_cast<double>(latency.Percentile(50)) / 1e6, 3)});
  table.AddRow({"p99 latency (s)",
                TableReporter::Num(
                    static_cast<double>(latency.Percentile(99)) / 1e6, 3)});
  table.AddRow({"ingested events",
                std::to_string(engine.metrics().ingested_events())});
  table.AddRow({"throughput (op-events/s)",
                TableReporter::Num(engine.metrics().ThroughputEps(duration), 0)});
  table.AddRow({"slowdown", TableReporter::Num(engine.MeanSlowdown(), 0)});
  table.AddRow(
      {"peak memory (MB)",
       TableReporter::Num(
           static_cast<double>(engine.memory().peak_bytes()) / 1048576.0, 1)});
  table.Print();
  uint64_t combined = 14695981039346656037ull;
  int64_t results = 0;
  for (const QueryId id : ids) {
    const SinkOperator& sink = engine.query(id).sink();
    uint8_t word[8];
    const uint64_t h = sink.results_hash();
    for (int i = 0; i < 8; ++i) word[i] = static_cast<uint8_t>(h >> (8 * i));
    combined = Fnv1aBytes(word, sizeof(word), combined);
    results += sink.results_received();
  }
  std::printf("results %lld\n", static_cast<long long>(results));
  std::printf("results_hash %016llx\n",
              static_cast<unsigned long long>(combined));
}

void AddListenJson(const Engine& engine, DurationMicros duration,
                   int64_t truncated, JsonLine* j) {
  const Histogram latency = engine.AggregateSwmLatency();
  j->Int("ingested", engine.metrics().ingested_events());
  j->Int("truncated", truncated);
  j->Int("swm_count", latency.count());
  j->Num("swm_p50_s", InterpolatedQuantile(latency, 0.50) / 1e6);
  j->Num("swm_p99_s", InterpolatedQuantile(latency, 0.99) / 1e6);
  j->Num("slowdown", engine.MeanSlowdown());
  j->Num("vthroughput_eps", engine.metrics().ThroughputEps(duration));
}

/// Matches klink_run's lockstep drain deadline.
constexpr DurationMicros kDrainDeadline = SecondsToMicros(60);

/// In-process equivalent of a blast-fed lockstep TCP run.
int RunListenRef(const FlagParser& f) {
  const WorkloadFlags w = ParseWorkloadFlags(f);
  Engine engine(w.engine, MakeKlink(w));
  std::vector<std::unique_ptr<Query>> queries = MakeListenQueries(w);
  const std::vector<uint64_t> seeds = ClientFeedSeeds(w);
  std::vector<QueryId> ids;
  std::vector<CappedFeed*> feeds;
  for (int q = 0; q < w.queries; ++q) {
    auto feed = std::make_unique<CappedFeed>(
        MakeClientFeed(w, seeds[static_cast<size_t>(q)]), w.duration);
    feeds.push_back(feed.get());
    ids.push_back(engine.AddQuery(std::move(queries[static_cast<size_t>(q)]),
                                  std::move(feed), 0));
  }
  const DurationMicros cycle = w.engine.cycle_length;
  while (engine.now() < w.duration) {
    engine.RunUntil(std::min(w.duration, engine.now() + cycle));
  }
  const auto pending = [&]() {
    int64_t total = 0;
    for (size_t q = 0; q < ids.size(); ++q) {
      total += engine.query(ids[q]).QueuedEvents();
      if (feeds[q]->Pending()) ++total;
    }
    return total;
  };
  const TimeMicros deadline = engine.now() + kDrainDeadline;
  while (pending() > 0 && engine.now() < deadline) {
    engine.RunUntil(engine.now() + cycle);
  }
  PrintListenResults(engine, ids, w.duration);
  JsonLine j;
  AddListenJson(engine, w.duration, pending(), &j);
  j.Print();
  return 0;
}

/// klink_run --listen --lockstep's serving loop (closed world, no
/// checkpoints), with every layer call timed.
int RunServe(const FlagParser& f) {
  const WorkloadFlags w = ParseWorkloadFlags(f);
  LayerTimes times;
  Engine engine(w.engine, std::make_unique<TimedPolicy>(MakeKlink(w), &times));
  IngestGateway gateway;
  std::vector<std::unique_ptr<Query>> queries = MakeListenQueries(w);
  std::vector<QueryId> ids;
  std::vector<uint32_t> streams;
  for (int q = 0; q < w.queries; ++q) {
    std::vector<uint32_t> own;
    for (size_t s = 0; s < queries[static_cast<size_t>(q)]->sources().size();
         ++s) {
      const uint32_t id = MakeStreamId(q, static_cast<int>(s));
      gateway.RegisterStream(id, IngestStreamConfig{});
      own.push_back(id);
      streams.push_back(id);
    }
    auto feed = std::make_unique<TimedFeed>(
        std::make_unique<NetworkFeed>(&gateway, own), true, &times);
    ids.push_back(engine.AddQuery(std::move(queries[static_cast<size_t>(q)]),
                                  std::move(feed), 0));
  }
  IngestServerConfig sc;
  sc.idle_timeout_ms = 60000;
  IngestServer server(sc, &gateway);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (lockstep mode)\n", server.port());
  std::fflush(stdout);

  const auto poll = [&](int timeout_ms) {
    const int64_t t0 = NowNs();
    server.PollOnce(timeout_ms);
    times.poll_ns += NowNs() - t0;
  };
  const DurationMicros cycle = w.engine.cycle_length;
  const int64_t run_start = NowNs();
  while (engine.now() < w.duration) {
    TimeMicros safe = std::numeric_limits<TimeMicros>::max();
    for (const uint32_t sid : streams) {
      safe = std::min(safe, gateway.StagedThrough(sid));
    }
    if (gateway.metrics().connections_accepted() > 0 &&
        server.num_connections() == 0) {
      safe = std::numeric_limits<TimeMicros>::max();
    }
    if (safe >= w.duration) {
      RunOneCycle(engine, std::min(w.duration, engine.now() + cycle), &times);
    } else if (engine.now() + cycle <= safe) {
      RunOneCycle(engine, engine.now() + cycle, &times);
    } else {
      poll(10);
    }
  }
  const auto pending = [&]() {
    int64_t total = 0;
    for (const QueryId id : ids) total += engine.query(id).QueuedEvents();
    for (const uint32_t sid : streams) total += gateway.staged_events(sid);
    return total;
  };
  const TimeMicros deadline = engine.now() + kDrainDeadline;
  while ((server.num_connections() > 0 || pending() > 0) &&
         engine.now() < deadline) {
    if (server.num_connections() > 0) poll(0);
    RunOneCycle(engine, engine.now() + cycle, &times);
  }
  const int64_t run_ns = NowNs() - run_start;
  server.Stop();

  PrintListenResults(engine, ids, w.duration);
  const IngestMetrics& im = gateway.metrics();
  int64_t decoded_data = 0;
  for (const uint32_t sid : streams) decoded_data += gateway.data_events(sid);
  JsonLine j;
  AddListenJson(engine, w.duration, pending(), &j);
  AddLayerJson(times, run_ns, engine.metrics().processed_events(), &j);
  j.Int("frames_decoded", im.frames_decoded());
  j.Int("bytes_read", im.bytes_read());
  j.Int("decoded_data", decoded_data);
  j.Int("stalls", im.TotalStalls());
  j.Int("stall_us", im.TotalStallMicros());
  j.Print();
  return 0;
}

/// One element of a client thread's replay: which of the thread's
/// connections it goes to, and the element.
struct ReplayItem {
  uint32_t conn = 0;
  Event event;
};

/// The elements of query q's feed that a blast-mode loadgen sends.
std::vector<EventFeed::FeedElement> GenerateClientFeed(const WorkloadFlags& w,
                                                       uint64_t feed_seed) {
  std::unique_ptr<EventFeed> feed = MakeClientFeed(w, feed_seed);
  std::vector<EventFeed::FeedElement> out;
  feed->PollUpTo(w.duration, std::numeric_limits<int64_t>::max(), &out);
  return out;
}

struct ClientThread {
  std::vector<uint32_t> stream_ids;  // one per connection
  std::vector<ReplayItem> items;     // in ingestion order
  LoadgenStats stats;
  Status result;
  double cpu_s = 0.0;  // this thread's CPU in the last session
};

/// Replays one thread's share of the feed. Every thread connects before
/// any sends: a lockstep klink_run treats "no connection open" as "all
/// clients done", so a thread that finished before another connected would
/// end the run early.
void ReplaySession(uint16_t port, ClientThread* t, std::latch* connected) {
  const double cpu0 = CpuSeconds(RUSAGE_THREAD);
  t->stats = LoadgenStats{};
  t->result = Status::Ok();
  std::vector<std::unique_ptr<LoadgenConnection>> conns;
  for (const uint32_t sid : t->stream_ids) {
    conns.push_back(std::make_unique<LoadgenConnection>());
    t->result = conns.back()->Connect("127.0.0.1", port, sid);
    if (!t->result.ok()) break;
  }
  connected->arrive_and_wait();
  if (!t->result.ok()) return;
  const auto send_all = [&]() -> Status {
    for (const ReplayItem& it : t->items) {
      if (Status s = conns[it.conn]->SendEvent(it.event); !s.ok()) return s;
    }
    for (auto& c : conns) {
      if (Status s = c->Flush(); !s.ok()) return s;
    }
    for (auto& c : conns) {
      if (Status s = c->SendBye(); !s.ok()) return s;
    }
    return Status::Ok();
  };
  t->result = send_all();
  for (auto& c : conns) {
    t->stats.data_events_sent += c->stats().data_events_sent;
    t->stats.frames_sent += c->stats().frames_sent;
    t->stats.bytes_sent += c->stats().bytes_sent;
    c->Close();
  }
  conns.clear();
  t->cpu_s = CpuSeconds(RUSAGE_THREAD) - cpu0;
}

/// Load client: feed generation in set-up, then one blast per "go PORT".
int RunClient(const FlagParser& f) {
  const WorkloadFlags w = ParseWorkloadFlags(f);
  const int num_threads = std::min(2, w.queries);
  std::vector<ClientThread> threads(static_cast<size_t>(num_threads));
  const std::vector<uint64_t> seeds = ClientFeedSeeds(w);
  int64_t total_data = 0;
  for (int q = 0; q < w.queries; ++q) {
    ClientThread& t = threads[static_cast<size_t>(q % num_threads)];
    const uint32_t base = static_cast<uint32_t>(t.stream_ids.size());
    int sources = 0;
    for (const EventFeed::FeedElement& fe :
         GenerateClientFeed(w, seeds[static_cast<size_t>(q)])) {
      sources = std::max(sources, fe.source_index + 1);
      t.items.push_back(
          {base + static_cast<uint32_t>(fe.source_index), fe.event});
      if (fe.event.is_data()) ++total_data;
    }
    for (int s = 0; s < sources; ++s) t.stream_ids.push_back(MakeStreamId(q, s));
  }
  // Each query's elements are already in ingestion order; a stable sort
  // interleaves a thread's queries the way their feeds would be polled.
  for (ClientThread& t : threads) {
    std::stable_sort(t.items.begin(), t.items.end(),
                     [](const ReplayItem& a, const ReplayItem& b) {
                       return a.event.ingest_time < b.event.ingest_time;
                     });
  }
  std::printf("ready data_events=%lld threads=%d\n",
              static_cast<long long>(total_data), num_threads);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.rfind("go ", 0) != 0) break;
    const uint16_t port = static_cast<uint16_t>(std::stoi(line.substr(3)));
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    std::latch connected(num_threads);
    std::vector<std::thread> workers;
    for (ClientThread& t : threads) {
      workers.emplace_back(
          [port, &t, &connected]() { ReplaySession(port, &t, &connected); });
    }
    for (std::thread& th : workers) th.join();
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    const double cpu_s = CpuSeconds() - cpu0;
    LoadgenStats sum;
    bool ok = true;
    double thread_cpu_s = 0.0;
    for (const ClientThread& t : threads) {
      thread_cpu_s = std::max(thread_cpu_s, t.cpu_s);
      sum.data_events_sent += t.stats.data_events_sent;
      sum.frames_sent += t.stats.frames_sent;
      sum.bytes_sent += t.stats.bytes_sent;
      if (!t.result.ok()) {
        std::fprintf(stderr, "client: %s\n", t.result.ToString().c_str());
        ok = false;
      }
    }
    JsonLine j;
    j.Int("ok", ok ? 1 : 0);
    j.Int("data_events_sent", sum.data_events_sent);
    j.Int("frames_sent", sum.frames_sent);
    j.Int("bytes_sent", sum.bytes_sent);
    j.Num("cpu_s", cpu_s);
    j.Num("thread_cpu_s", thread_cpu_s);
    j.Num("wall_s", wall_s);
    j.Print();
    std::fflush(stdout);
  }
  return 0;
}

/// DecodeFrame over query 0's stream as the client encodes it.
int RunDecode(const FlagParser& f) {
  const WorkloadFlags w = ParseWorkloadFlags(f);
  std::vector<uint8_t> wire;
  EncodeHello(MakeStreamId(0, 0), &wire);
  int64_t frames = 1;
  uint64_t seq = 1;
  for (const EventFeed::FeedElement& fe :
       GenerateClientFeed(w, ClientFeedSeeds(w).front())) {
    EncodeEvent(fe.event, seq++, &wire);
    ++frames;
  }
  std::vector<double> per_frame;
  Frame frame;
  const int64_t start = NowNs();
  while (per_frame.size() < 3 || NowNs() - start < 300'000'000) {
    const int64_t t0 = NowNs();
    size_t off = 0;
    int64_t decoded = 0;
    while (off < wire.size()) {
      size_t consumed = 0;
      KLINK_CHECK(DecodeFrame(wire.data() + off, wire.size() - off, &frame,
                              &consumed) == DecodeResult::kOk);
      off += consumed;
      ++decoded;
    }
    KLINK_CHECK_EQ(decoded, frames);
    per_frame.push_back(static_cast<double>(NowNs() - t0) /
                        static_cast<double>(frames));
  }
  std::sort(per_frame.begin(), per_frame.end());
  JsonLine j;
  j.Int("frames", frames);
  j.Int("bytes", static_cast<int64_t>(wire.size()));
  j.Num("decode_ns_per_frame", per_frame[per_frame.size() / 2]);
  j.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc - 1, argv + 1).ok()) return 2;
  const std::string mode = flags.GetString("mode", "");
  if (mode == "inproc") return RunInproc(flags);
  if (mode == "listen-ref") return RunListenRef(flags);
  if (mode == "serve") return RunServe(flags);
  if (mode == "client") return RunClient(flags);
  if (mode == "decode") return RunDecode(flags);
  std::fprintf(stderr,
               "usage: perfbench_driver --mode=inproc|listen-ref|serve|client|"
               "decode [workload flags]\n");
  return 2;
}
