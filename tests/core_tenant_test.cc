// Multi-tenant scenario engine tests: the ScenarioSpec DSL parser, the
// open-loop TenantEngine's conservation + determinism contracts, and the
// guaranteed-class accounting surviving a chassis-flap fault campaign
// (link epochs must not lose or double-count completions).

#include "src/core/tenant.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/sim/scenario.h"
#include "src/topo/cluster.h"
#include "src/topo/faults.h"

namespace unifab {
namespace {

// ---------------------------------------------------------------------------
// ScenarioSpec DSL.

TEST(ScenarioParseTest, FullSpecRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::Parse(
      "# campaign header comment\n"
      "scenario mixed_demo\n"
      "seed 1234\n"
      "horizon_us 4000\n"
      "class name=gold qos=guaranteed tenants=10 arrival=poisson rate_ops_s=2000 "
      "bytes=65536 request_mbps=4000 mix=etrans:4,heap_read:2,faa:1 slo_p99_us=900\n"
      "class name=bronze qos=best_effort tenants=90 arrival=bursty burst=16 "
      "rate_ops_s=500 bytes=32768 mix=etrans:1\n");
  ASSERT_TRUE(spec.errors.empty()) << spec.errors[0];
  EXPECT_EQ(spec.name, "mixed_demo");
  EXPECT_EQ(spec.seed, 1234u);
  EXPECT_DOUBLE_EQ(spec.horizon_us, 4000.0);
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.TotalTenants(), 100u);

  const TenantClassSpec& gold = spec.classes[0];
  EXPECT_EQ(gold.name, "gold");
  EXPECT_EQ(gold.qos, QosClass::kGuaranteed);
  EXPECT_EQ(gold.tenants, 10u);
  EXPECT_EQ(gold.arrival, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(gold.rate_ops_per_s, 2000.0);
  EXPECT_EQ(gold.bytes, 65536u);
  EXPECT_DOUBLE_EQ(gold.request_mbps, 4000.0);
  EXPECT_DOUBLE_EQ(gold.slo_p99_us, 900.0);
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<int>(TenantOp::kETrans)], 4.0);
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<int>(TenantOp::kHeapRead)], 2.0);
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<int>(TenantOp::kFaa)], 1.0);
  EXPECT_DOUBLE_EQ(gold.mix[static_cast<int>(TenantOp::kCollect)], 0.0);

  const TenantClassSpec& bronze = spec.classes[1];
  EXPECT_EQ(bronze.qos, QosClass::kBestEffort);
  EXPECT_EQ(bronze.arrival, ArrivalKind::kBursty);
  EXPECT_EQ(bronze.burst, 16u);
  EXPECT_DOUBLE_EQ(bronze.slo_p99_us, 0.0);  // default: no SLO
}

TEST(ScenarioParseTest, DiagnosticsCarryLineNumbers) {
  const ScenarioSpec spec = ScenarioSpec::Parse(
      "seed not_a_number\n"
      "florble 3\n"
      "class name=x qos=gold-plated mix=etrans:1\n"
      "class name=y mix=etrans:0\n");  // all-zero mix: no op to draw
  ASSERT_EQ(spec.errors.size(), 5u);
  EXPECT_NE(spec.errors[0].find("line 1:"), std::string::npos);
  EXPECT_NE(spec.errors[0].find("bad seed"), std::string::npos);
  EXPECT_NE(spec.errors[1].find("line 2:"), std::string::npos);
  EXPECT_NE(spec.errors[1].find("unknown directive"), std::string::npos);
  EXPECT_NE(spec.errors[2].find("qos=gold-plated"), std::string::npos);
  EXPECT_NE(spec.errors[3].find("mix=etrans:0"), std::string::npos);
  // Both class lines were rejected, so the spec also has no classes.
  EXPECT_EQ(spec.errors[4], "scenario has no classes");
}

TEST(ScenarioParseTest, UnnamedClassesGetDeterministicNames) {
  const ScenarioSpec spec = ScenarioSpec::Parse(
      "class mix=heap_read:1\n"
      "class mix=heap_write:1\n");
  ASSERT_TRUE(spec.errors.empty());
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.classes[0].name, "class0");
  EXPECT_EQ(spec.classes[1].name, "class1");
}

// ---------------------------------------------------------------------------
// TenantEngine over a live runtime.

struct TenantRig {
  explicit TenantRig(const std::string& scenario, int num_faas = 1,
                     int num_switches = 1)
      : cluster([&] {
          ClusterConfig cfg;
          cfg.num_hosts = 2;
          cfg.num_fams = 2;
          cfg.num_faas = num_faas;
          cfg.num_switches = num_switches;
          return cfg;
        }()) {
    runtime = std::make_unique<UniFabricRuntime>(&cluster, RuntimeOptions{});
    spec = ScenarioSpec::Parse(scenario);
    EXPECT_TRUE(spec.errors.empty()) << (spec.errors.empty() ? "" : spec.errors[0]);
    tenants = runtime->AttachTenants(spec);
  }

  Cluster cluster;
  std::unique_ptr<UniFabricRuntime> runtime;
  ScenarioSpec spec;
  TenantEngine* tenants = nullptr;
};

// Every op kind, two classes, a full run: everything issued must end up
// terminal (completed or failed), the per-op counters must sum to the
// issue counter, and the latency summary only holds completed ops.
TEST(TenantEngineTest, OpenLoopArrivalsDrainAndConserve) {
  TenantRig rig(
      "scenario conserve\n"
      "seed 11\n"
      "horizon_us 400\n"
      "class name=gold qos=guaranteed tenants=4 arrival=deterministic "
      "rate_ops_s=20000 bytes=8192 request_mbps=2000 "
      "mix=etrans:2,heap_read:2,heap_write:1,heap_migrate:1,collect:1,faa:1\n"
      "class name=bronze qos=best_effort tenants=12 arrival=bursty burst=4 "
      "rate_ops_s=10000 bytes=4096 mix=etrans:1,heap_read:3\n");
  rig.tenants->Start();
  rig.cluster.engine().Run();

  EXPECT_GT(rig.tenants->issued(), 0u);
  EXPECT_EQ(rig.tenants->in_flight(), 0u);  // open loop fully drained
  EXPECT_EQ(rig.tenants->issued(), rig.tenants->completed() + rig.tenants->failed());
  ASSERT_EQ(rig.tenants->num_classes(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const TenantClassStats& s = rig.tenants->class_stats(c);
    EXPECT_GT(s.issued, 0u);
    std::uint64_t per_op = 0;
    for (int op = 0; op < kNumTenantOps; ++op) {
      per_op += s.ops[op];
    }
    EXPECT_EQ(per_op, s.issued);
    EXPECT_EQ(s.latency_us.Count(), s.completed);
  }
  // The conservation check is live in the engine-wide auditor too.
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

TEST(TenantEngineTest, IdenticalSpecsReplayIdentically) {
  const std::string scenario =
      "scenario replay\n"
      "seed 77\n"
      "horizon_us 300\n"
      "class name=gold qos=guaranteed tenants=3 arrival=poisson rate_ops_s=30000 "
      "bytes=8192 mix=etrans:1,heap_read:1,collect:1\n"
      "class name=bronze qos=best_effort tenants=9 arrival=poisson "
      "rate_ops_s=20000 bytes=4096 mix=etrans:1,heap_write:1\n";
  auto run = [&scenario] {
    TenantRig rig(scenario);
    rig.tenants->Start();
    rig.cluster.engine().Run();
    std::vector<double> fingerprint;
    for (std::size_t c = 0; c < rig.tenants->num_classes(); ++c) {
      const TenantClassStats& s = rig.tenants->class_stats(c);
      fingerprint.push_back(static_cast<double>(s.issued));
      fingerprint.push_back(static_cast<double>(s.completed));
      fingerprint.push_back(static_cast<double>(s.failed));
      for (int op = 0; op < kNumTenantOps; ++op) {
        fingerprint.push_back(static_cast<double>(s.ops[op]));
      }
      fingerprint.push_back(s.latency_us.Sum());
      fingerprint.push_back(s.latency_us.P99());
    }
    return fingerprint;
  };
  EXPECT_EQ(run(), run());  // bit-identical replay, including latencies
}

// Degenerate topologies must not wedge the open loop: with no FAMs/FAAs the
// transfer/task ops degrade to benign no-op completions.
TEST(TenantEngineTest, DegenerateTopologyCompletesEverything) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.num_fams = 0;
  cfg.num_faas = 0;
  Cluster cluster(cfg);
  UniFabricRuntime runtime(&cluster, RuntimeOptions{});
  const ScenarioSpec spec = ScenarioSpec::Parse(
      "scenario tiny\nseed 3\nhorizon_us 100\n"
      "class name=solo tenants=2 rate_ops_s=50000 bytes=4096 "
      "mix=etrans:1,heap_read:1,heap_migrate:1,collect:1,faa:1\n");
  ASSERT_TRUE(spec.errors.empty());
  TenantEngine* tenants = runtime.AttachTenants(spec);
  tenants->Start();
  cluster.engine().Run();
  EXPECT_GT(tenants->issued(), 0u);
  EXPECT_EQ(tenants->in_flight(), 0u);
  EXPECT_EQ(tenants->issued(), tenants->completed() + tenants->failed());
}

// Regression: a heap_migrate the heap rejects (the object is still
// migrating, MigrateResult::kBusy) completes exactly once, as a benign
// no-op. Migrate reports the rejection through its callback and its result
// code; completing on both drove in_flight below zero.
TEST(TenantEngineTest, RejectedMigrationCompletesOnce) {
  TenantRig rig(
      "scenario busy\n"
      "seed 5\n"
      "horizon_us 200\n"
      "class name=solo tenants=1 arrival=deterministic rate_ops_s=500000 "
      "bytes=65536 mix=heap_migrate:1\n");
  rig.tenants->Start();
  rig.cluster.engine().Run();

  const TenantClassStats& s = rig.tenants->class_stats(0);
  const HeapStats& heap = rig.runtime->heap(1)->stats();
  // Arrivals every 2 us outrun a 64 KiB copy, so most are rejected as busy.
  EXPECT_GT(s.issued, heap.promotions + heap.demotions);
  EXPECT_EQ(rig.tenants->in_flight(), 0u);
  EXPECT_EQ(s.issued, s.completed + s.failed);
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

// Regression: at a tiny rate_ops_s every inter-arrival gap lies far past any
// horizon. Converting such a gap to a Tick is out of range; it used to come
// out as 0, so a tenant re-arrived on the same tick forever.
TEST(TenantEngineTest, TinyRateNeverArrives) {
  TenantRig rig(
      "scenario trickle\n"
      "seed 1\n"
      "horizon_us 1000\n"
      "class name=slow tenants=8 arrival=poisson rate_ops_s=1e-8 bytes=64 "
      "mix=heap_read:1\n");
  rig.tenants->Start();
  rig.cluster.engine().Step(100000);
  EXPECT_EQ(rig.tenants->issued(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: guaranteed-class SLO accounting across link epochs. A chassis
// flap campaign (FAM links failing and healing mid-run) must never lose or
// double-count a tenant completion: transfers abort or retry, but every
// issued op still reaches exactly one terminal state and the auditor's
// conservation check stays clean at quiescence.

TEST(TenantFaultCampaignTest, GuaranteedAccountingSurvivesChassisFlaps) {
  TenantRig rig(
      "scenario flaps\n"
      "seed 29\n"
      "horizon_us 2000\n"
      "class name=gold qos=guaranteed tenants=4 arrival=poisson rate_ops_s=5000 "
      "bytes=16384 request_mbps=4000 mix=etrans:3,heap_read:1 slo_p99_us=1500\n"
      "class name=storm qos=best_effort tenants=16 arrival=bursty burst=8 "
      "rate_ops_s=4000 bytes=8192 mix=etrans:1\n",
      /*num_faas=*/0, /*num_switches=*/2);

  FaultScheduler faults(&rig.cluster.engine(), &rig.cluster.fabric());
  for (int f = 0; f < 2; ++f) {
    faults.RegisterLink("fam" + std::to_string(f),
                        rig.cluster.fabric().LinkTo(rig.cluster.fam(f)->id()));
  }
  // Two flap cycles per chassis, staggered; everything heals well before
  // the horizon so in-flight retries can drain.
  const FaultPlan plan = FaultPlan::Parse(
      "fail fam0 @100\nrecover fam0 @350\n"
      "fail fam1 @500\nrecover fam1 @800\n"
      "fail fam0 @1000\nrecover fam0 @1300\n");
  ASSERT_TRUE(plan.ok());
  faults.Schedule(plan);

  rig.tenants->Start();
  rig.cluster.engine().Run();

  // Exactly-once terminal accounting survived the link epochs.
  EXPECT_EQ(rig.tenants->in_flight(), 0u);
  EXPECT_EQ(rig.tenants->issued(), rig.tenants->completed() + rig.tenants->failed());
  const TenantClassStats& gold = rig.tenants->class_stats(0);
  EXPECT_GT(gold.issued, 0u);
  EXPECT_GT(gold.completed, 0u);  // the campaign heals; traffic survives
  EXPECT_EQ(gold.issued, gold.completed + gold.failed);
  EXPECT_EQ(gold.latency_us.Count(), gold.completed);  // no double-counted ops

  // Flit conservation at quiescence on every link direction (the fault
  // windows drop, they don't duplicate).
  for (const auto& link : rig.cluster.fabric().links()) {
    for (int side = 0; side < 2; ++side) {
      const LinkStats& s = link->stats(side);
      EXPECT_EQ(s.flits_accepted, s.flits_delivered + s.dropped_on_fail)
          << link->name() << " side " << side;
    }
  }
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

}  // namespace
}  // namespace unifab
