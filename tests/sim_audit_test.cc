// Invariant-auditor and run-digest tests.
//
// Every component that registers conservation checks gets a seeded-violation
// test: corrupt one counter through the AuditTestPeer hook, confirm the
// sweep reports it under the component's path, restore the counter, confirm
// the sweep is clean again. Plus determinism-digest equality/inequality and
// regression tests for the bugfixes that shipped with the auditor (Summary
// non-finite handling, heap lazy-epoch catch-up, link credit validation).

#include "src/sim/audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/arbiter.h"
#include "src/core/etrans.h"
#include "src/core/heap.h"
#include "src/core/ofi.h"
#include "src/core/runtime.h"
#include "src/fabric/adapter.h"
#include "src/fabric/bridge.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/fabric/link.h"
#include "src/fabric/switch.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/topo/cluster.h"

namespace unifab {

// Test-only corruption hooks. Each accessor reaches into one audited
// component's private accounting so a test can seed exactly one violation
// and put the state back afterwards.
class AuditTestPeer {
 public:
  static std::size_t& QueueLive(Engine& e) { return e.queue_.live_; }

  static std::uint32_t& LinkCredits(Link& l, int sender_side, Channel ch) {
    return l.dirs_[sender_side].credits[static_cast<std::size_t>(ch)];
  }
  static std::uint64_t& LinkAccepted(Link& l, int sender_side) {
    return l.dirs_[sender_side].stats.flits_accepted;
  }
  static std::uint64_t& SwitchWaiting(FabricSwitch& s, int out) {
    return s.waiting_[static_cast<std::size_t>(out)];
  }

  static void SeedStaleMshr(HostAdapter& a, std::uint64_t txn_id) {
    HostAdapter::OutstandingTxn txn;
    txn.submitted_at = 0;  // ancient: any positive mshr_timeout has expired
    a.outstanding_.emplace(txn_id, std::move(txn));
  }
  static void EraseMshr(HostAdapter& a, std::uint64_t txn_id) {
    a.outstanding_.erase(txn_id);
  }

  static double& ArbiterReservedCache(FabricArbiter& a, PbrId resource) {
    return a.resources_[resource].reserved_cache;
  }
  static double& ArbiterClassReservedCache(FabricArbiter& a, PbrId resource, QosClass c) {
    return a.resources_[resource].class_reserved_cache[static_cast<int>(c)];
  }
  static double& ArbiterTenantReservedCache(FabricArbiter& a, PbrId resource,
                                            std::uint32_t tenant) {
    return a.resources_[resource].tenant_reserved_cache[tenant];
  }
  // Inflates one lease directly (the caches deliberately stay behind, as a
  // buggy grant path would leave them).
  static void ArbiterBumpLease(FabricArbiter& a, PbrId resource, PbrId holder,
                               std::uint32_t tenant, double delta) {
    a.resources_[resource].leases.at(FabricArbiter::FlowKey{holder, tenant}).mbps += delta;
  }

  static std::uint64_t& TenantInFlight(TenantEngine& t) { return t.in_flight_; }

  static std::uint64_t& HeapTierUsed(UnifiedHeap& h, int tier) {
    return h.tier_used_[static_cast<std::size_t>(tier)];
  }

  static std::uint64_t& ETransDoubleTerminals(ETransEngine& e) {
    return e.double_terminals_;
  }

  static std::uint64_t& OfiCompletions(OfiDomain& d) { return d.stats_.completions; }
};

namespace {

// True when some violation path ends with `suffix`.
bool AnyPathEndsWith(const std::vector<InvariantViolation>& violations,
                     const std::string& suffix) {
  for (const auto& v : violations) {
    if (v.path.size() >= suffix.size() &&
        v.path.compare(v.path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// InvariantAuditor / AuditScope mechanics.

TEST(InvariantAuditorTest, RegisterSweepUnregister) {
  InvariantAuditor auditor;
  bool broken = false;
  const std::uint64_t id =
      auditor.Register("test/check", [&] { return broken ? "it broke" : ""; });
  EXPECT_EQ(auditor.NumChecks(), 1u);

  EXPECT_TRUE(auditor.Sweep().empty());
  broken = true;
  const auto violations = auditor.Sweep();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path, "test/check");
  EXPECT_EQ(violations[0].message, "it broke");
  EXPECT_EQ(auditor.SweepsRun(), 2u);

  EXPECT_TRUE(auditor.Unregister(id));
  EXPECT_FALSE(auditor.Unregister(id));
  EXPECT_EQ(auditor.NumChecks(), 0u);
}

TEST(InvariantAuditorTest, ClaimPrefixUniquifiesDeterministically) {
  InvariantAuditor auditor;
  EXPECT_EQ(auditor.ClaimPrefix("fabric/link/l0"), "fabric/link/l0");
  EXPECT_EQ(auditor.ClaimPrefix("fabric/link/l0"), "fabric/link/l0#2");
  EXPECT_EQ(auditor.ClaimPrefix("fabric/link/l0"), "fabric/link/l0#3");
  EXPECT_EQ(auditor.ClaimPrefix("fabric/link/l1"), "fabric/link/l1");
}

TEST(AuditScopeTest, ChecksUnregisterOnDestruction) {
  Engine engine;
  const std::size_t baseline = engine.audit().NumChecks();
  {
    Link link(&engine, LinkConfig{}, /*seed=*/7, "scoped");
    EXPECT_GT(engine.audit().NumChecks(), baseline);
  }
  EXPECT_EQ(engine.audit().NumChecks(), baseline);
}

TEST(AuditScopeTest, TwoSameNamedComponentsAuditSeparately) {
  Engine engine;
  Link a(&engine, LinkConfig{}, 1, "twin");
  Link b(&engine, LinkConfig{}, 2, "twin");
  EXPECT_TRUE(engine.audit().Sweep().empty());

  // Corrupt only the second link; the violation must carry the "#2" path.
  std::uint32_t& credits = AuditTestPeer::LinkCredits(b, 0, Channel::kMem);
  const std::uint32_t saved = credits;
  credits = saved + 5;
  const auto violations = engine.audit().Sweep();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].path.find("fabric/link/twin#2/"), std::string::npos)
      << violations[0].path;
  credits = saved;
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

// ---------------------------------------------------------------------------
// Seeded violations, one per audited component.

TEST(SeededViolationTest, EngineEventQueueRecordConservation) {
  Engine engine;
  engine.Schedule(FromNs(10.0), [] {});
  EXPECT_TRUE(engine.audit().Sweep().empty());

  --AuditTestPeer::QueueLive(engine);  // one record allocated but not counted
  const auto violations = engine.audit().Sweep();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path, "sim/engine/event_queue/record_conservation");

  ++AuditTestPeer::QueueLive(engine);
  EXPECT_TRUE(engine.audit().Sweep().empty());
  engine.Run();
}

TEST(SeededViolationTest, LinkCreditConservation) {
  Engine engine;
  Link link(&engine, LinkConfig{}, 3, "l0");

  std::uint32_t& credits = AuditTestPeer::LinkCredits(link, 0, Channel::kMem);
  const std::uint32_t saved = credits;
  credits = saved + 1;  // more credits than the receiver ever advertised
  EXPECT_TRUE(AnyPathEndsWith(engine.audit().Sweep(),
                              "fabric/link/l0/credit_conservation"));
  credits = saved;
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, LinkFlitConservation) {
  Engine engine;
  Link link(&engine, LinkConfig{}, 3, "l0");

  std::uint64_t& accepted = AuditTestPeer::LinkAccepted(link, 0);
  ++accepted;  // claims a flit that was never queued, sent, or dropped
  EXPECT_TRUE(AnyPathEndsWith(engine.audit().Sweep(),
                              "fabric/link/l0/flit_conservation"));
  --accepted;
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, SwitchFlitConservation) {
  Engine engine;
  FabricSwitch sw(&engine, SwitchConfig{}, "sw0");
  Link l0(&engine, LinkConfig{}, 3, "l0");
  Link l1(&engine, LinkConfig{}, 4, "l1");
  sw.AttachPort(&l0.end(0));
  sw.AttachPort(&l1.end(0));
  EXPECT_TRUE(engine.audit().Sweep().empty());

  std::uint64_t& waiting = AuditTestPeer::SwitchWaiting(sw, 1);
  ++waiting;  // the arbiter believes a flit waits for port 1; no queue holds it
  EXPECT_TRUE(AnyPathEndsWith(engine.audit().Sweep(),
                              "fabric/switch/sw0/flit_conservation"));
  --waiting;
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, BridgeFlitConservation) {
  Engine engine;
  BridgeLink bridge(&engine, BridgeConfig{}, /*seed=*/3, "b0");

  // BridgeLink restates the link conservation law under its own audit path,
  // so operators can tell an Ethernet accounting leak from a CXL one.
  std::uint64_t& accepted = AuditTestPeer::LinkAccepted(bridge, 0);
  ++accepted;  // claims a frame that was never queued, sent, or dropped
  EXPECT_TRUE(AnyPathEndsWith(engine.audit().Sweep(),
                              "fabric/bridge/b0/flits_conserved"));
  --accepted;
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, OfiCompletionConservation) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 1;
  cfg.num_faas = 1;
  Cluster cluster(cfg);
  UniFabricRuntime runtime(&cluster, RuntimeOptions{});
  OfiDomain* ofi = runtime.ofi();
  ASSERT_NE(ofi, nullptr);

  CompletionQueue cq;
  Endpoint* ep0 = ofi->CreateEndpoint(cluster.host(0)->id(), runtime.host_agent(0), &cq, "ep0");
  Endpoint* ep1 = ofi->CreateEndpoint(cluster.host(1)->id(), runtime.host_agent(1), &cq, "ep1");
  const MemRegion src = ofi->RegisterMemory(cluster.fam(0)->id(), 0x0000, 4096);
  const MemRegion dst = ofi->RegisterMemory(cluster.fam(0)->id(), 0x4000, 4096);
  ep1->PostRecv(7, dst, 1);
  ep0->PostSend(cluster.host(1)->id(), 7, src, 2);
  cluster.engine().Run();
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());

  std::uint64_t& completions = AuditTestPeer::OfiCompletions(*ofi);
  ++completions;  // a completion retired for an op that was never posted
  EXPECT_TRUE(AnyPathEndsWith(cluster.engine().audit().Sweep(),
                              "core/ofi/completions_conserved"));
  --completions;
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());
}

// One switch, an arbiter adapter, and two client adapters — the same shape
// the runtime provisions (mirrors core_arbiter_test.cc).
struct ArbiterRig {
  explicit ArbiterRig(ArbiterConfig arb_cfg = ArbiterConfig{}) : fabric(&engine, 11) {
    AdapterConfig lean;
    lean.request_proc_latency = FromNs(20);
    lean.response_proc_latency = FromNs(20);
    sw = fabric.AddSwitch(SwitchConfig{}, "sw");
    auto* arb_adapter = fabric.AddHostAdapter(lean, "arb");
    fabric.Connect(sw, arb_adapter, LinkConfig{});
    for (int i = 0; i < 2; ++i) {
      client_adapters[i] = fabric.AddHostAdapter(lean, i == 0 ? "cli0" : "cli1");
      fabric.Connect(sw, client_adapters[i], LinkConfig{});
    }
    fabric.ConfigureRouting();

    arb_dispatcher = std::make_unique<MessageDispatcher>(arb_adapter);
    arbiter = std::make_unique<FabricArbiter>(&engine, arb_cfg, arb_dispatcher.get());
    for (int i = 0; i < 2; ++i) {
      client_dispatchers[i] = std::make_unique<MessageDispatcher>(client_adapters[i]);
      clients[i] = std::make_unique<ArbiterClient>(&engine, arb_cfg,
                                                  client_dispatchers[i].get(),
                                                  arbiter->fabric_id());
    }
  }

  Engine engine;
  FabricInterconnect fabric;
  FabricSwitch* sw;
  HostAdapter* client_adapters[2];
  std::unique_ptr<MessageDispatcher> arb_dispatcher;
  std::unique_ptr<FabricArbiter> arbiter;
  std::unique_ptr<MessageDispatcher> client_dispatchers[2];
  std::unique_ptr<ArbiterClient> clients[2];
};

TEST(SeededViolationTest, ArbiterReservedAccounting) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);
  double granted = -1.0;
  rig.clients[0]->Reserve(res, 4000.0, [&](double g) { granted = g; });
  rig.engine.Run();
  ASSERT_GT(granted, 0.0);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  double& cache = AuditTestPeer::ArbiterReservedCache(*rig.arbiter, res);
  const double saved = cache;
  cache = saved + 123.0;  // shadow accounting drifts off the lease map
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "core/arbiter/reserved_accounting"));
  cache = saved;
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, ArbiterQosClassAccounting) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);
  double granted = -1.0;
  rig.clients[0]->Reserve(res, 4000.0, /*tenant=*/3, QosClass::kGuaranteed,
                          [&](double g) { granted = g; });
  rig.engine.Run();
  ASSERT_GT(granted, 0.0);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  double& cache =
      AuditTestPeer::ArbiterClassReservedCache(*rig.arbiter, res, QosClass::kGuaranteed);
  const double saved = cache;
  cache = saved + 77.0;  // per-class shadow drifts off the lease map
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "core/arbiter/qos/class_accounting"));
  cache = saved;
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, ArbiterQosTenantAccounting) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);
  double granted = -1.0;
  rig.clients[0]->Reserve(res, 4000.0, /*tenant=*/3, QosClass::kBurstable,
                          [&](double g) { granted = g; });
  rig.engine.Run();
  ASSERT_GT(granted, 0.0);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  double& cache = AuditTestPeer::ArbiterTenantReservedCache(*rig.arbiter, res, 3);
  const double saved = cache;
  cache = saved - 1.0;  // per-tenant shadow undercounts the tenant's lease
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "core/arbiter/qos/tenant_accounting"));
  cache = saved;
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  // A phantom tenant in the shadow map (no lease behind it) must also trip.
  AuditTestPeer::ArbiterTenantReservedCache(*rig.arbiter, res, 99) = 50.0;
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "core/arbiter/qos/tenant_accounting"));
  AuditTestPeer::ArbiterTenantReservedCache(*rig.arbiter, res, 99) = 0.0;
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, ArbiterQosTenantBudgetCeiling) {
  ArbiterConfig cfg;
  cfg.qos[static_cast<int>(QosClass::kGuaranteed)].tenant_budget_mbps = 3000.0;
  ArbiterRig rig(cfg);
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);
  double granted = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, /*tenant=*/7, QosClass::kGuaranteed,
                          [&](double g) { granted = g; });
  rig.engine.Run();
  ASSERT_DOUBLE_EQ(granted, 3000.0);  // clipped to the budget
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  // Push the lease past the budget as a buggy grant path would.
  AuditTestPeer::ArbiterBumpLease(*rig.arbiter, res, rig.client_adapters[0]->id(),
                                  /*tenant=*/7, +1000.0);
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(),
                              "core/arbiter/qos/tenant_budget_ceiling"));
  AuditTestPeer::ArbiterBumpLease(*rig.arbiter, res, rig.client_adapters[0]->id(),
                                  /*tenant=*/7, -1000.0);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(SeededViolationTest, AdapterMshrDeadline) {
  ArbiterRig rig;
  // Make "ancient" unambiguous: run past the default MSHR timeout.
  rig.engine.RunUntil(FromUs(400.0));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  AuditTestPeer::SeedStaleMshr(*rig.client_adapters[0], /*txn_id=*/987654321u);
  EXPECT_TRUE(AnyPathEndsWith(rig.engine.audit().Sweep(), "cli0/mshr_deadline"));
  AuditTestPeer::EraseMshr(*rig.client_adapters[0], 987654321u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// One host + one FAM runtime: gives a live heap and eTrans engine wired the
// way production code wires them.
struct RuntimeRig {
  RuntimeRig() : cluster([] {
        ClusterConfig cfg;
        cfg.num_hosts = 1;
        cfg.num_fams = 1;
        cfg.num_faas = 0;
        return cfg;
      }()) {
    RuntimeOptions opts;
    opts.heap_local_bytes = 1 << 20;
    runtime = std::make_unique<UniFabricRuntime>(&cluster, opts);
  }

  Cluster cluster;
  std::unique_ptr<UniFabricRuntime> runtime;
};

TEST(SeededViolationTest, HeapTierOccupancy) {
  RuntimeRig rig;
  UnifiedHeap* heap = rig.runtime->heap(0);
  ASSERT_NE(heap->Allocate(4096), kInvalidObject);
  rig.cluster.engine().Run();
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());

  std::uint64_t& used = AuditTestPeer::HeapTierUsed(*heap, 0);
  used += 64;  // bytes charged to the tier with no object or free block behind them
  EXPECT_TRUE(AnyPathEndsWith(rig.cluster.engine().audit().Sweep(),
                              "core/heap/tier_occupancy"));
  used -= 64;
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

TEST(SeededViolationTest, ETransTerminalExactlyOnce) {
  RuntimeRig rig;
  ETransEngine* etrans = rig.runtime->etrans();
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());

  std::uint64_t& doubles = AuditTestPeer::ETransDoubleTerminals(*etrans);
  ++doubles;  // an attempt resolved after its transfer was already terminal
  EXPECT_TRUE(AnyPathEndsWith(rig.cluster.engine().audit().Sweep(),
                              "core/etrans/engine/terminal_exactly_once"));
  --doubles;
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

TEST(SeededViolationTest, TenantCompletionsConserved) {
  RuntimeRig rig;
  ScenarioSpec spec = ScenarioSpec::Parse(
      "scenario audit\n"
      "seed 7\n"
      "horizon_us 50\n"
      "class name=bg qos=best_effort tenants=2 arrival=poisson rate_ops_s=100000 "
      "bytes=4096 mix=heap_read:1,heap_write:1\n");
  ASSERT_TRUE(spec.errors.empty());
  TenantEngine* tenants = rig.runtime->AttachTenants(spec);
  tenants->Start();
  rig.cluster.engine().Run();
  ASSERT_GT(tenants->issued(), 0u);
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());

  std::uint64_t& in_flight = AuditTestPeer::TenantInFlight(*tenants);
  ++in_flight;  // a completion vanished (or an issue was double-counted)
  EXPECT_TRUE(AnyPathEndsWith(rig.cluster.engine().audit().Sweep(),
                              "core/tenant/completions_conserved"));
  --in_flight;
  EXPECT_TRUE(rig.cluster.engine().audit().Sweep().empty());
}

// AuditNow is the fail-fast path: any violation must abort with the
// component path in the message.
TEST(AuditDeathTest, AuditNowAbortsOnViolation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        engine.Schedule(FromNs(10.0), [] {});
        --AuditTestPeer::QueueLive(engine);
        engine.AuditNow();
      },
      "INVARIANT VIOLATION.*sim/engine/event_queue/record_conservation");
}

// ---------------------------------------------------------------------------
// Run-digest determinism.

std::uint64_t DigestOf(int events, Tick spacing) {
  Engine engine;
  engine.SetAuditCadence(1);
  for (int i = 0; i < events; ++i) {
    engine.Schedule(static_cast<Tick>(i) * spacing, [] {});
  }
  engine.Run();
  return engine.digest().value();
}

TEST(RunDigestTest, IdenticalWorkloadsProduceIdenticalDigests) {
  EXPECT_EQ(DigestOf(16, FromNs(5.0)), DigestOf(16, FromNs(5.0)));
}

TEST(RunDigestTest, DifferentWorkloadsProduceDifferentDigests) {
  const std::uint64_t base = DigestOf(16, FromNs(5.0));
  EXPECT_NE(base, DigestOf(16, FromNs(7.0)));  // same count, different ticks
  EXPECT_NE(base, DigestOf(17, FromNs(5.0)));  // one extra event
}

TEST(RunDigestTest, DisabledAuditLeavesDigestAtOffsetBasis) {
  Engine engine;
  engine.SetAuditCadence(0);  // override any ambient UNIFAB_AUDIT setting
  engine.Schedule(FromNs(5.0), [] {});
  engine.Run();
  EXPECT_EQ(engine.digest().value(), RunDigest::kOffsetBasis);
}

TEST(RunDigestTest, FoldIsOrderSensitive) {
  RunDigest a;
  RunDigest b;
  a.Fold(1);
  a.Fold(2);
  b.Fold(2);
  b.Fold(1);
  EXPECT_NE(a.value(), b.value());
  b.Reset();
  b.Fold(1);
  b.Fold(2);
  EXPECT_EQ(a.value(), b.value());
}

// ---------------------------------------------------------------------------
// Regression: Summary non-finite handling (NaN poisoned sort's ordering).

TEST(SummaryRegressionTest, NonFiniteSamplesDroppedAndCounted) {
  Summary s;
  s.Add(1.0);
  s.Add(std::numeric_limits<double>::quiet_NaN());
  s.Add(std::numeric_limits<double>::infinity());
  s.Add(-std::numeric_limits<double>::infinity());
  s.Add(3.0);
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_EQ(s.NonFiniteDropped(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
  s.Clear();
  EXPECT_EQ(s.NonFiniteDropped(), 0u);
}

TEST(SummaryRegressionTest, EmptySummaryReportsZeroSentinels) {
  const Summary s;
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 0.0);
  EXPECT_DOUBLE_EQ(s.Max(), 0.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
}

// ---------------------------------------------------------------------------
// Regression: heap lazy-epoch catch-up decays once per elapsed epoch.

TEST(HeapEpochRegressionTest, IdleStretchDecaysOncePerElapsedEpoch) {
  RuntimeRig rig;
  UnifiedHeap* heap = rig.runtime->heap(0);
  Engine& engine = rig.cluster.engine();
  const Tick len = HeapConfig{}.epoch_length;

  const ObjectId id = heap->Allocate(64, 1);
  ASSERT_NE(id, kInvalidObject);
  for (int i = 0; i < 10; ++i) {
    heap->Read(id, nullptr);
  }
  engine.Run();
  heap->RunEpoch();
  const double t1 = heap->Info(id).temperature;
  EXPECT_DOUBLE_EQ(t1, 5.0);  // alpha=0.5 over 10 accesses

  // Sleep through 5 full epochs with zero accesses, then run one epoch:
  // catch-up must fold all 5 (4 idle decays + the final EWMA fold), not 1.
  const std::uint64_t epochs_before = heap->stats().epochs;
  engine.RunUntil(engine.Now() + 5 * len);
  heap->RunEpoch();
  EXPECT_EQ(heap->stats().epochs - epochs_before, 5u);
  const double expect = t1 * std::pow(0.5, 4) * 0.5;  // (1-a)^4 idle, then (1-a)*t
  EXPECT_NEAR(heap->Info(id).temperature, expect, 1e-12);
}

// ---------------------------------------------------------------------------
// Regression: zero advertised credits is a config error, and Recover()
// refills exactly the advertised pool.

TEST(LinkCreditRegressionDeathTest, ZeroAdvertisedCreditsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine engine;
        LinkConfig cfg;
        cfg.credits_per_vc = 1;
        cfg.credit_overcommit = 0.25;  // 1 * 0.25 rounds to zero credits
        Link link(&engine, cfg, 1, "bad");
      },
      "rounds to zero advertised credits");
}

TEST(LinkCreditRegressionTest, RecoverRefillsExactlyAdvertisedCredits) {
  Engine engine;
  LinkConfig cfg;
  cfg.credits_per_vc = 8;
  cfg.credit_overcommit = 1.5;  // advertised = 12
  Link link(&engine, cfg, 1, "l0");
  EXPECT_EQ(link.end(0).CreditsAvailable(Channel::kMem), 12u);

  link.Fail();
  link.Recover();
  EXPECT_EQ(link.end(0).CreditsAvailable(Channel::kMem), 12u);
  EXPECT_EQ(link.end(1).CreditsAvailable(Channel::kMem), 12u);
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

}  // namespace
}  // namespace unifab
