// Tests for the metric registry, instrument groups, the event-trace sink,
// and Summary::Percentile edge cases.

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/topo/cluster.h"

namespace unifab {
namespace {

TEST(SummaryPercentileTest, EmptySummaryReturnsZeroSentinel) {
  // No samples → deterministic 0.0 from every percentile query (e.g. a p99
  // over zero completed operations), never UB.
  Summary s;
  ASSERT_TRUE(s.Empty());
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
}

TEST(SummaryPercentileTest, ClearRestoresEmptySentinel) {
  Summary s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.P99(), 42.0);
  s.Clear();
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
}

TEST(SummaryPercentileTest, SingleSampleEveryPercentile) {
  Summary s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 42.0);
}

TEST(SummaryPercentileTest, ZeroAndHundredAreMinAndMax) {
  Summary s;
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 9.0);
  EXPECT_DOUBLE_EQ(s.Min(), s.Percentile(0.0));
  EXPECT_DOUBLE_EQ(s.Max(), s.Percentile(100.0));
}

TEST(SummaryPercentileTest, RepeatedValuesAreStable) {
  Summary s;
  for (int i = 0; i < 100; ++i) {
    s.Add(3.0);
  }
  for (double p : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.Percentile(p), 3.0) << "p=" << p;
  }
}

TEST(SummaryPercentileTest, NearestRankOnSmallSets) {
  Summary s;
  s.Add(10.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 10.0);  // nearest-rank: ceil(0.5*2)=1st
  EXPECT_DOUBLE_EQ(s.Percentile(51.0), 20.0);
}

TEST(SummaryPercentileTest, OutOfDomainPercentilesAreClampedOrSentinel) {
  // Regression: p outside [0, 100] used to index past the sample vector
  // (ceil(p/100 * n) > n), and NaN p flowed through the clamp comparisons
  // into a size_t conversion — both UB. Out-of-range p clamps to the
  // min/max sample; NaN p reports the same 0.0 sentinel as an empty
  // summary.
  Summary s;
  for (double v : {5.0, 1.0, 9.0, 3.0, 7.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(200.0), 9.0);
  EXPECT_DOUBLE_EQ(s.Percentile(std::numeric_limits<double>::infinity()), 9.0);
  EXPECT_DOUBLE_EQ(s.Percentile(-std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);

  Summary empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(MetricRegistryTest, CounterGaugeSummaryRoundTrip) {
  MetricRegistry reg;
  std::uint64_t count = 3;
  double gauge = 2.5;
  Summary lat;
  lat.Add(1.0);
  lat.Add(3.0);
  reg.AddCounterFn("a/count", [&count] { return count; });
  reg.AddGaugeFn("a/gauge", [&gauge] { return gauge; });
  reg.AddSummaryFn("a/lat", [&lat] { return &lat; });

  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"a/count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a/gauge\": 2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a/lat\": {\"count\":2,\"sum\":4,\"mean\":2,\"min\":1,\"max\":3,"
                      "\"p50\":1,\"p99\":3}"),
            std::string::npos)
      << json;
}

TEST(MetricRegistryTest, CallbackInstrumentsReadLiveValues) {
  MetricRegistry reg;
  std::uint64_t hits = 0;
  reg.AddCounterFn("cache/hits", [&hits] { return hits; });
  EXPECT_NE(reg.SnapshotJson().find("\"cache/hits\": 0"), std::string::npos);
  hits = 7;
  EXPECT_NE(reg.SnapshotJson().find("\"cache/hits\": 7"), std::string::npos);
}

TEST(MetricRegistryTest, DuplicatePathsGetDeterministicSuffixes) {
  MetricRegistry reg;
  std::uint64_t v = 0;
  EXPECT_EQ(reg.AddCounterFn("x/n", [&v] { return v; }), "x/n");
  EXPECT_EQ(reg.AddCounterFn("x/n", [&v] { return v; }), "x/n#2");
  EXPECT_EQ(reg.AddCounterFn("x/n", [&v] { return v; }), "x/n#3");
}

TEST(MetricRegistryTest, GroupUnregistersOnDestruction) {
  MetricRegistry reg;
  {
    MetricGroup group(&reg, "tmp/thing");
    group.AddCounterFn("c", [] { return std::uint64_t{0}; });
    EXPECT_TRUE(reg.Has("tmp/thing/c"));
  }
  EXPECT_FALSE(reg.Has("tmp/thing/c"));
}

TEST(MetricRegistryTest, EngineRegistersItsOwnInstruments) {
  Engine engine;
  EXPECT_TRUE(engine.metrics().Has("sim/engine/events_fired"));
  engine.Schedule(5, [] {});
  engine.Run();
  EXPECT_NE(engine.metrics().SnapshotJson().find("\"sim/engine/events_fired\": 1"),
            std::string::npos);
}

// Two identical sim runs must produce byte-identical registry snapshots —
// the property the bench JSON blobs rely on.
std::string RunClusterAndSnapshot() {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 1;
  cfg.num_faas = 1;
  Cluster cluster(cfg);
  MemoryHierarchy* core = cluster.host(0)->core(0);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    cluster.engine().Schedule(FromNs(100.0) * static_cast<Tick>(i), [&cluster, core, &rng] {
      core->Access(cluster.FamBase(0) + (rng.Next() % (1 << 20)) / 64 * 64,
                   rng.NextBool(0.3), nullptr);
    });
  }
  cluster.engine().Run();
  return cluster.engine().metrics().SnapshotJson();
}

TEST(MetricRegistryTest, SnapshotDeterministicAcrossIdenticalRuns) {
  const std::string a = RunClusterAndSnapshot();
  const std::string b = RunClusterAndSnapshot();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceRecorderTest, CountsSchedulesAndFires) {
  Engine engine;
  TraceRecorder trace(/*capacity=*/8);
  engine.SetTraceSink(&trace);
  int fired = 0;
  for (int i = 0; i < 4; ++i) {
    engine.Schedule(static_cast<Tick>(i + 1), [&fired] { ++fired; });
  }
  engine.Run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(trace.scheduled(), 4u);
  EXPECT_EQ(trace.fired(), 4u);
  EXPECT_EQ(trace.records().size(), 4u);
  // Queue residency equals the schedule delay for these events.
  EXPECT_GT(trace.queue_delay_ns().Max(), 0.0);
  EXPECT_NE(trace.ToJsonLines().find("\"fired\":true"), std::string::npos);
}

TEST(TraceRecorderTest, DetachedSinkCostsNothing) {
  Engine engine;
  EXPECT_EQ(engine.trace_sink(), nullptr);
  engine.Schedule(1, [] {});
  engine.Run();  // no sink installed: must simply not crash
}

}  // namespace
}  // namespace unifab
