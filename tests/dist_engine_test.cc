#include "src/dist/dist_engine.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/klink/klink_policy.h"
#include "src/net/delay_model.h"
#include "src/query/pipeline_builder.h"
#include "src/runtime/engine.h"
#include "src/sched/rr_policy.h"
#include "src/workloads/workload.h"
#include "src/workloads/ysb.h"

namespace klink {
namespace {

std::unique_ptr<EventFeed> SteadyFeed(double rate, uint64_t seed) {
  SourceSpec spec;
  spec.events_per_second = rate;
  spec.key_cardinality = 10;
  spec.watermark_period = MillisToMicros(250);
  spec.watermark_lag = MillisToMicros(50);
  return std::make_unique<SyntheticFeed>(
      std::vector<SourceSpec>{spec},
      std::make_unique<ConstantDelay>(MillisToMicros(10)), seed, 0);
}

DistEngine::PolicyFactory RrFactory() {
  return [](NodeId) { return std::make_unique<RoundRobinPolicy>(); };
}

TEST(DistEngineTest, SingleNodeEndToEnd) {
  DistEngineConfig config;
  config.num_nodes = 1;
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 500;
  engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 1));
  engine.RunUntil(SecondsToMicros(12));
  EXPECT_GT(engine.query(0).sink().results_received(), 0);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 0);
}

TEST(DistEngineTest, SplitPlacementDeliversAcrossNodes) {
  DistEngineConfig config;
  config.num_nodes = 3;
  config.placement = PlacementMode::kSplit;
  config.link_latency = MillisToMicros(5);
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 500;
  engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 2));
  // The pipeline really is split.
  EXPECT_GT(CountCrossNodeEdges(engine.query(0), engine.placement(0)), 0);
  engine.RunUntil(SecondsToMicros(12));
  // Results still flow end-to-end through the transit links.
  EXPECT_GT(engine.query(0).sink().results_received(), 0);
  EXPECT_GT(engine.AggregateSwmLatency().count(), 0);
}

TEST(DistEngineTest, LocalPlacementRoundRobinsQueries) {
  DistEngineConfig config;
  config.num_nodes = 2;
  config.placement = PlacementMode::kLocal;
  DistEngine engine(config, RrFactory());
  YsbConfig ysb;
  ysb.events_per_second = 200;
  for (int q = 0; q < 4; ++q) {
    engine.AddQuery(MakeYsbQuery(q, ysb), SteadyFeed(200, 10 + q));
  }
  for (int q = 0; q < 4; ++q) {
    const auto& placement = engine.placement(q);
    for (NodeId n : placement) EXPECT_EQ(n, q % 2);
  }
}

TEST(DistEngineTest, LinkLatencyDelaysCrossNodeEvents) {
  // With a huge link latency and split placement, output stalls far
  // behind the single-node equivalent.
  auto run = [](DurationMicros link_latency) {
    DistEngineConfig config;
    config.num_nodes = 2;
    config.placement = PlacementMode::kSplit;
    config.link_latency = link_latency;
    DistEngine engine(config, RrFactory());
    YsbConfig ysb;
    ysb.events_per_second = 500;
    engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(500, 3));
    engine.RunUntil(SecondsToMicros(12));
    return engine.AggregateSwmLatency().mean();
  };
  const double fast = run(MillisToMicros(1));
  const double slow = run(SecondsToMicros(2));
  EXPECT_GT(slow, fast + 1e6);
}

TEST(DistEngineTest, KlinkRunsDecentralized) {
  DistEngineConfig config;
  config.num_nodes = 4;
  config.placement = PlacementMode::kLocal;
  DistEngine engine(config, [](NodeId) {
    return std::make_unique<KlinkPolicy>();
  });
  YsbConfig ysb;
  ysb.events_per_second = 400;
  for (int q = 0; q < 8; ++q) {
    engine.AddQuery(MakeYsbQuery(q, ysb), SteadyFeed(400, 20 + q));
  }
  engine.RunUntil(SecondsToMicros(15));
  for (int q = 0; q < 8; ++q) {
    EXPECT_GT(engine.query(q).sink().results_received(), 0) << q;
  }
}

TEST(DistEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    DistEngineConfig config;
    config.num_nodes = 2;
    config.placement = PlacementMode::kSplit;
    DistEngine engine(config, RrFactory());
    YsbConfig ysb;
    ysb.events_per_second = 300;
    engine.AddQuery(MakeYsbQuery(0, ysb), SteadyFeed(300, 5));
    engine.RunUntil(SecondsToMicros(10));
    return std::make_pair(engine.metrics().processed_events(),
                          engine.AggregateSwmLatency().mean());
  };
  EXPECT_EQ(run(), run());
}

/// The figures a run is judged by: sink SWM latency and drained events.
struct RunFigures {
  int64_t count = 0;
  double mean = 0.0;
  int64_t p99 = 0;
  int64_t processed = 0;
  bool operator==(const RunFigures&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const RunFigures& f) {
    return os << "count " << f.count << ", mean " << f.mean << ", p99 "
              << f.p99 << ", processed " << f.processed;
  }
};

constexpr int kEquivCores = 4;
constexpr int64_t kEquivMemory = 1ll << 20;  // tight: memory pressure binds
constexpr int kEquivQueries = 16;

/// Deploys the same YSB queries, feeds and deploy times into `engine`.
template <typename EngineT>
void DeployYsb(EngineT& engine) {
  Rng rng(3);
  for (int q = 0; q < kEquivQueries; ++q) {
    const TimeMicros deploy = rng.NextInt(0, SecondsToMicros(4));
    YsbConfig wc;
    wc.events_per_second = 1000.0;
    wc.window_offset = rng.NextInt(0, wc.window_size - 1);
    engine.AddQuery(MakeYsbQuery(q, wc),
                    MakeYsbFeed(wc, MakeDelayModel(DelayKind::kUniform),
                                rng.NextUint64(), deploy),
                    deploy);
  }
}

template <typename EngineT>
RunFigures Figures(const EngineT& engine) {
  const Histogram h = engine.AggregateSwmLatency();
  return RunFigures{h.count(), h.mean(), h.Percentile(99),
                    engine.metrics().processed_events()};
}

class OneNodeEquivalenceTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(OneNodeEquivalenceTest, OneLocalNodeIsTheSingleNodeEngine) {
  // A 1-node kLocal DistEngine runs the single-node drain, snapshot and
  // ingest, so it must reproduce Engine exactly.
  const PolicyKind kind = GetParam();
  const TimeMicros end = SecondsToMicros(20);
  EngineConfig ec;
  ec.num_cores = kEquivCores;
  ec.memory_capacity_bytes = kEquivMemory;
  Engine single(ec, MakePolicy(kind, KlinkPolicyConfig{}, 7));
  DeployYsb(single);
  single.RunUntil(end);

  DistEngineConfig dc;
  dc.num_nodes = 1;
  dc.node.num_cores = kEquivCores;
  dc.node.memory_capacity_bytes = kEquivMemory;
  dc.placement = PlacementMode::kLocal;
  DistEngine dist(dc, [kind](NodeId) {
    return MakePolicy(kind, KlinkPolicyConfig{}, 7);
  });
  DeployYsb(dist);
  dist.RunUntil(end);

  const RunFigures want = Figures(single);
  EXPECT_GT(want.count, 0);
  EXPECT_EQ(Figures(dist), want);
  // Past the pressure onset: the shared cost multiplier is exercised.
  EXPECT_GT(single.memory().peak_bytes(), kEquivMemory * 7 / 10);
}

INSTANTIATE_TEST_SUITE_P(Policies, OneNodeEquivalenceTest,
                         ::testing::Values(PolicyKind::kKlink,
                                           PolicyKind::kFcfs),
                         [](const ::testing::TestParamInfo<PolicyKind>& p) {
                           return std::string(PolicyKindName(p.param));
                         });

TEST(DistEngineConfigDeathTest, RejectsOutOfRangeValues) {
  const auto build = [](const DistEngineConfig& config) {
    DistEngine engine(config, RrFactory());
  };
  DistEngineConfig no_cores;
  no_cores.node.num_cores = 0;  // would schedule nothing, silently
  EXPECT_DEATH(build(no_cores), "KLINK_CHECK failed");
  DistEngineConfig no_nodes;
  no_nodes.num_nodes = 0;
  EXPECT_DEATH(build(no_nodes), "KLINK_CHECK failed");
  DistEngineConfig negative_link;
  negative_link.link_latency = -1;
  EXPECT_DEATH(build(negative_link), "KLINK_CHECK failed");
  DistEngineConfig no_memory;
  no_memory.node.memory_capacity_bytes = 0;
  EXPECT_DEATH(build(no_memory), "KLINK_CHECK failed");
  DistEngineConfig bad_resume;
  bad_resume.node.backpressure_resume_fraction = 1.5;
  EXPECT_DEATH(build(bad_resume), "KLINK_CHECK failed");
  DistEngineConfig no_cycle;
  no_cycle.cycle_length = 0;
  EXPECT_DEATH(build(no_cycle), "KLINK_CHECK failed");
  DistEngineConfig defaults;
  defaults.link_latency = 0;  // zero-latency links are valid
  build(defaults);
}

}  // namespace
}  // namespace klink
