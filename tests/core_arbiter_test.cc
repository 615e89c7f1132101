// Fabric-arbiter unit tests: max-min lease accounting across renewals
// (including the shrink-to-zero path) and the client-side request deadline
// that keeps callbacks from leaking when the control path dies.

#include "src/core/arbiter.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"

namespace unifab {
namespace {

AdapterConfig Lean() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(20);
  cfg.response_proc_latency = FromNs(20);
  return cfg;
}

// One switch, the arbiter on its own lightweight adapter (as the runtime
// provisions it), and two client adapters.
struct ArbiterRig {
  explicit ArbiterRig(ArbiterConfig cfg = ArbiterConfig{}) : fabric(&engine, 11) {
    sw = fabric.AddSwitch(SwitchConfig{}, "sw");
    auto* arb_adapter = fabric.AddHostAdapter(Lean(), "arb");
    fabric.Connect(sw, arb_adapter, LinkConfig{});
    for (int i = 0; i < 2; ++i) {
      client_adapters[i] = fabric.AddHostAdapter(Lean(), i == 0 ? "cli0" : "cli1");
      client_links[i] = fabric.Connect(sw, client_adapters[i], LinkConfig{});
    }
    fabric.ConfigureRouting();

    arb_dispatcher = std::make_unique<MessageDispatcher>(arb_adapter);
    arbiter = std::make_unique<FabricArbiter>(&engine, cfg, arb_dispatcher.get());
    for (int i = 0; i < 2; ++i) {
      client_dispatchers[i] = std::make_unique<MessageDispatcher>(client_adapters[i]);
      clients[i] = std::make_unique<ArbiterClient>(&engine, cfg, client_dispatchers[i].get(),
                                                  arbiter->fabric_id());
    }
  }

  Engine engine;
  FabricInterconnect fabric;
  FabricSwitch* sw;
  HostAdapter* client_adapters[2];
  Link* client_links[2];
  std::unique_ptr<MessageDispatcher> arb_dispatcher;
  std::unique_ptr<FabricArbiter> arbiter;
  std::unique_ptr<MessageDispatcher> client_dispatchers[2];
  std::unique_ptr<ArbiterClient> clients[2];
};

TEST(FabricArbiterTest, RenewalShrinksOverShareLease) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  // First flow grabs everything (work-conserving grant).
  double granted0 = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, [&](double g) { granted0 = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(granted0, 8000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 8000.0);

  // Second flow is entitled to its fair share despite the overcommit...
  double granted1 = -1.0;
  rig.clients[1]->Reserve(res, 8000.0, [&](double g) { granted1 = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(granted1, 4000.0);

  // ...and the first flow's renewal shrinks it to the new fair share.
  double renewed = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, [&](double g) { renewed = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(renewed, 4000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 8000.0);
}

TEST(FabricArbiterTest, RenewalSqueezedToZeroErasesStaleLease) {
  // Regression: a renewal whose FairGrant comes out <= 0 must drop the
  // holder's old lease instead of leaving it to double-count reserved
  // bandwidth in every kQuery until expiry.
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  double granted = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, [&](double g) { granted = g; });
  rig.engine.Run();
  ASSERT_DOUBLE_EQ(granted, 8000.0);

  // The renewal asks for nothing (flow winding down): grant is 0 — a
  // rejection — and the stale 8000 MB/s lease must go with it.
  double renewed = -1.0;
  rig.clients[0]->Reserve(res, 0.0, [&](double g) { renewed = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(renewed, 0.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 0.0);

  // A query now sees the full capacity again, not capacity minus a ghost.
  double available = -1.0;
  rig.clients[1]->Query(res, [&](double a) { available = a; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(available, 8000.0);
}

TEST(ArbiterClientTest, DeadlineFiresZeroGrantWhenControlPathDies) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  // Sever the client's link before the request can leave, then reserve:
  // no reply will ever arrive.
  rig.client_links[0]->Fail();
  std::vector<double> grants;
  rig.clients[0]->Reserve(res, 4000.0, [&](double g) { grants.push_back(g); });
  EXPECT_EQ(rig.clients[0]->outstanding(), 1u);

  rig.engine.Run();  // drains through the request deadline
  ASSERT_EQ(grants.size(), 1u);  // fired exactly once, never again
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_EQ(rig.clients[0]->outstanding(), 0u);
  EXPECT_EQ(rig.clients[0]->stats().requests, 1u);
  EXPECT_EQ(rig.clients[0]->stats().timeouts, 1u);
  EXPECT_EQ(rig.clients[0]->stats().replies, 0u);
}

TEST(ArbiterClientTest, ReplyCancelsDeadline) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  std::vector<double> grants;
  rig.clients[0]->Reserve(res, 4000.0, [&](double g) { grants.push_back(g); });
  rig.engine.Run();  // reply arrives and the armed deadline must not re-fire

  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0], 4000.0);
  EXPECT_EQ(rig.clients[0]->outstanding(), 0u);
  EXPECT_EQ(rig.clients[0]->stats().replies, 1u);
  EXPECT_EQ(rig.clients[0]->stats().timeouts, 0u);
}

TEST(ArbiterClientTest, LateGrantIsReleasedNotLeaked) {
  // Regression: a grant that arrives after the client deadline already
  // fired cb(0) used to be dropped on the floor — the arbiter kept the
  // lease reserved until expiry even though no caller would ever release
  // it. The client must hand the late grant straight back.
  ArbiterConfig cfg;
  cfg.request_timeout = FromNs(50);  // far below the control-path RTT
  ArbiterRig rig(cfg);
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  std::vector<double> grants;
  rig.clients[0]->Reserve(res, 4000.0, [&](double g) { grants.push_back(g); });
  rig.engine.Run();

  // The caller saw exactly one callback, with 0 granted (the deadline).
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_EQ(rig.clients[0]->stats().timeouts, 1u);
  EXPECT_EQ(rig.clients[0]->stats().replies, 0u);
  EXPECT_EQ(rig.clients[0]->stats().late_grants, 1u);

  // The arbiter granted, then got the bandwidth back via the client's
  // automatic release — not via lease expiry.
  EXPECT_EQ(rig.arbiter->stats().reservations, 1u);
  EXPECT_EQ(rig.arbiter->stats().releases, 1u);
  EXPECT_EQ(rig.arbiter->stats().expirations, 0u);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 0.0);
}

TEST(FabricArbiterQosTest, WeightedShareAcrossClasses) {
  // A burstable request (never preempts) against a fully committed pool
  // still gets its weighted entitlement (cap * 2/3 here), and the
  // best-effort renewal shrinks to its own entitlement so the pool
  // converges back to capacity.
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 9000.0);

  double be = -1.0;
  rig.clients[1]->Reserve(res, 9000.0, 2, QosClass::kBestEffort, [&](double g) { be = g; });
  rig.engine.Run();
  ASSERT_DOUBLE_EQ(be, 9000.0);  // sole flow: work-conserving

  double burst = -1.0;
  rig.clients[0]->Reserve(res, 9000.0, 1, QosClass::kBurstable, [&](double g) { burst = g; });
  rig.engine.Run();
  // Active classes: burstable (w=2) and best-effort (w=1).
  EXPECT_DOUBLE_EQ(burst, 6000.0);

  double be_renewed = -1.0;
  rig.clients[1]->Reserve(res, 9000.0, 2, QosClass::kBestEffort,
                          [&](double g) { be_renewed = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(be_renewed, 3000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 9000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 1), 6000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 2), 3000.0);
  EXPECT_EQ(rig.arbiter->qos_stats().preemptions, 0u);
}

TEST(FabricArbiterQosTest, GuaranteedPreemptsBestEffortLeases) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  double be = -1.0;
  rig.clients[1]->Reserve(res, 8000.0, 2, QosClass::kBestEffort, [&](double g) { be = g; });
  rig.engine.Run();
  ASSERT_DOUBLE_EQ(be, 8000.0);

  // The guaranteed request evicts the best-effort lease outright and takes
  // the whole pool.
  double gua = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, 1, QosClass::kGuaranteed, [&](double g) { gua = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(gua, 8000.0);
  EXPECT_EQ(rig.arbiter->qos_stats().preemptions, 1u);
  EXPECT_DOUBLE_EQ(rig.arbiter->qos_stats().preempted_mbps, 8000.0);
  EXPECT_EQ(rig.arbiter->qos_stats().grants[static_cast<int>(QosClass::kGuaranteed)], 1u);
  EXPECT_EQ(rig.arbiter->qos_stats().grants[static_cast<int>(QosClass::kBestEffort)], 1u);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 8000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 1), 8000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 2), 0.0);
}

TEST(FabricArbiterQosTest, TenantBudgetClampsGrants) {
  ArbiterConfig cfg;
  cfg.qos[static_cast<int>(QosClass::kGuaranteed)].tenant_budget_mbps = 3000.0;
  ArbiterRig rig(cfg);
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  // First flow of tenant 7 is clipped from its fair share to the budget.
  double g0 = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, 7, QosClass::kGuaranteed, [&](double g) { g0 = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(g0, 3000.0);
  EXPECT_EQ(rig.arbiter->qos_stats().budget_clamps, 1u);

  // A second flow of the same tenant (different holder) finds the budget
  // exhausted and is rejected, even though the pool has headroom.
  double g1 = -1.0;
  rig.clients[1]->Reserve(res, 8000.0, 7, QosClass::kGuaranteed, [&](double g) { g1 = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(g1, 0.0);
  EXPECT_EQ(rig.arbiter->qos_stats().budget_clamps, 2u);
  EXPECT_EQ(rig.arbiter->stats().rejections, 1u);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 7), 3000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 3000.0);
}

TEST(FabricArbiterQosTest, SameHolderDistinctTenantsHoldIndependentLeases) {
  ArbiterRig rig;
  const PbrId res = rig.client_adapters[1]->id();
  rig.arbiter->RegisterResource(res, 8000.0);

  double g0 = -1.0;
  rig.clients[0]->Reserve(res, 4000.0, 1, QosClass::kBestEffort, [&](double g) { g0 = g; });
  rig.engine.Run();
  ASSERT_DOUBLE_EQ(g0, 4000.0);

  // Same holder adapter, different tenant: a second, independent flow — it
  // must not be treated as a renewal of tenant 1's lease.
  double g1 = -1.0;
  rig.clients[0]->Reserve(res, 8000.0, 2, QosClass::kBestEffort, [&](double g) { g1 = g; });
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(g1, 4000.0);  // two flows in one class: fair share each
  EXPECT_DOUBLE_EQ(rig.arbiter->ReservedOf(res), 8000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 1), 4000.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 2), 4000.0);

  // Releasing tenant 1's lease leaves tenant 2's intact.
  rig.clients[0]->Release(res, 4000.0, 1, QosClass::kBestEffort);
  rig.engine.Run();
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 1), 0.0);
  EXPECT_DOUBLE_EQ(rig.arbiter->TenantReservedOf(res, 2), 4000.0);
}

}  // namespace
}  // namespace unifab
