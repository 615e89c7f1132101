// Switch unit tests: routing, arbitration policies, head-of-line blocking,
// and the credit-allocation ramp-up.

#include "src/fabric/switch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fabric/interconnect.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace unifab {
namespace {

// Adapter-like endpoint that sends raw flits and counts arrivals.
class TestNode : public FlitReceiver {
 public:
  explicit TestNode(Engine* engine, Tick credit_hold = 0)
      : engine_(engine), credit_hold_(credit_hold) {}

  void ReceiveFlit(const Flit& flit, int /*port*/) override {
    received.push_back({flit, engine_->Now()});
    if (credit_hold_ == 0) {
      endpoint->ReturnCredit(flit.channel);
    } else {
      engine_->Schedule(credit_hold_,
                        [this, ch = flit.channel] { endpoint->ReturnCredit(ch); });
    }
  }

  bool Send(PbrId dst, Channel ch = Channel::kMem, std::uint32_t payload = 64) {
    Flit f;
    f.txn_id = ++txn_;
    f.channel = ch;
    f.opcode = Opcode::kMemWr;
    f.src = self;
    f.dst = dst;
    f.payload_bytes = payload;
    f.created_at = engine_->Now();
    return endpoint->Send(f);
  }

  struct Arrival {
    Flit flit;
    Tick at;
  };

  PbrId self = 0;
  LinkEndpoint* endpoint = nullptr;
  std::vector<Arrival> received;

 private:
  Engine* engine_;
  Tick credit_hold_ = 0;
  std::uint64_t txn_ = 0;
};

// A star topology: N test nodes around one switch, built by hand so we can
// drive raw flits. `slow_node` (if >= 0) returns its input credits only
// after `slow_hold`, creating congestion on its output port.
struct Star {
  Star(int n, SwitchConfig sw_cfg, LinkConfig link_cfg = {}, int slow_node = -1,
       Tick slow_hold = 0, LinkConfig slow_link_cfg = {}) {
    sw = std::make_unique<FabricSwitch>(&engine, sw_cfg, "sw");
    for (int i = 0; i < n; ++i) {
      const std::string name = std::to_string(i);
      nodes.push_back(std::make_unique<TestNode>(&engine, i == slow_node ? slow_hold : 0));
      links.push_back(std::make_unique<Link>(&engine,
                                             i == slow_node ? slow_link_cfg : link_cfg,
                                             100 + static_cast<std::uint64_t>(i), "l" + name));
      Link* link = links.back().get();
      const int port = sw->AttachPort(&link->end(0));
      TestNode* node = nodes.back().get();
      link->end(1).Bind(node, 0);
      node->endpoint = &link->end(1);
      node->self = static_cast<PbrId>(i + 1);
      sw->SetRoute(node->self, port);
    }
  }

  Engine engine;
  std::unique_ptr<FabricSwitch> sw;
  std::vector<std::unique_ptr<TestNode>> nodes;
  std::vector<std::unique_ptr<Link>> links;
};

TEST(SwitchTest, RoutesFlitToCorrectPort) {
  Star star(3, SwitchConfig{});
  star.nodes[0]->Send(star.nodes[2]->self);
  star.engine.Run();
  EXPECT_EQ(star.nodes[2]->received.size(), 1u);
  EXPECT_TRUE(star.nodes[1]->received.empty());
  EXPECT_EQ(star.sw->stats().flits_forwarded, 1u);
}

TEST(SwitchTest, PortLatencyAppearsInDelivery) {
  SwitchConfig cfg;
  cfg.port_latency = FromNs(90);
  LinkConfig link;
  link.propagation = FromNs(10);
  Star star(2, cfg, link);
  star.nodes[0]->Send(star.nodes[1]->self);
  star.engine.Run();
  ASSERT_EQ(star.nodes[1]->received.size(), 1u);
  // 2 link traversals (serialize ~1.06 + 10 prop each) + 90 switch.
  EXPECT_NEAR(ToNs(star.nodes[1]->received[0].at), 90.0 + 2 * 11.06, 1.0);
}

TEST(SwitchTest, UnroutableFlitIsDroppedWithoutWedging) {
  Star star(2, SwitchConfig{});
  star.nodes[0]->Send(/*dst=*/0x0FFF);
  star.nodes[0]->Send(star.nodes[1]->self);
  star.engine.Run();
  // The bogus flit vanished; the good one still arrived.
  EXPECT_EQ(star.nodes[1]->received.size(), 1u);
  EXPECT_EQ(star.sw->stats().flits_unroutable, 1u);
  EXPECT_EQ(star.sw->stats().flits_received, 2u);
}

TEST(SwitchTest, DefaultRouteCatchesForeignDomains) {
  Star star(2, SwitchConfig{});
  star.sw->SetDefaultRoute(star.sw->RouteFor(star.nodes[1]->self));
  star.nodes[0]->Send(MakePbrId(7, 5));  // unknown destination, foreign domain
  star.engine.Run();
  EXPECT_EQ(star.nodes[1]->received.size(), 1u);
}

TEST(SwitchTest, ManyToOneContentionDeliversEverything) {
  Star star(5, SwitchConfig{});
  const PbrId sink = star.nodes[4]->self;
  for (int src = 0; src < 4; ++src) {
    for (int i = 0; i < 20; ++i) {
      star.nodes[static_cast<std::size_t>(src)]->Send(sink);
    }
  }
  star.engine.Run();
  EXPECT_EQ(star.nodes[4]->received.size(), 80u);
}

TEST(SwitchTest, RoundRobinSharesOutputFairly) {
  SwitchConfig cfg;
  cfg.arbitration = SwitchArbitration::kRoundRobin;
  Star star(3, cfg);
  const PbrId sink = star.nodes[2]->self;
  for (int i = 0; i < 50; ++i) {
    star.nodes[0]->Send(sink);
    star.nodes[1]->Send(sink);
  }
  star.engine.Run();
  ASSERT_EQ(star.nodes[2]->received.size(), 100u);
  // Interleaving: in any window of 10 arrivals both sources appear.
  for (std::size_t w = 0; w + 10 <= 100; w += 10) {
    int from0 = 0;
    for (std::size_t i = w; i < w + 10; ++i) {
      if (star.nodes[2]->received[i].flit.src == star.nodes[0]->self) {
        ++from0;
      }
    }
    EXPECT_GT(from0, 0);
    EXPECT_LT(from0, 10);
  }
}

TEST(SwitchTest, FifoBreaksSameTickTiesByFlitIdentity) {
  // Two flits that arrive at the switch on the same tick are a genuine tie
  // for kFifo. The tie-break is the flit identity (src, txn, seq) — not the
  // global enqueue counter, which tracks event-processing order and would
  // let the issue order inside a tick (here: node 1 before node 0) decide.
  auto run = [] {
    SwitchConfig cfg;
    cfg.arbitration = SwitchArbitration::kFifo;
    Star star(3, cfg);
    const PbrId sink = star.nodes[2]->self;
    for (int i = 0; i < 8; ++i) {
      // Well-separated rounds; within each, the higher-id source sends
      // first so enqueue order and identity order disagree.
      star.engine.Schedule(FromUs(1) * static_cast<Tick>(i), [&star, sink] {
        star.nodes[1]->Send(sink);
        star.nodes[0]->Send(sink);
      });
    }
    star.engine.Run();
    std::vector<PbrId> srcs;
    for (const auto& a : star.nodes[2]->received) {
      srcs.push_back(a.flit.src);
    }
    return srcs;
  };

  const std::vector<PbrId> srcs = run();
  ASSERT_EQ(srcs.size(), 16u);
  for (std::size_t i = 0; i < srcs.size(); i += 2) {
    EXPECT_EQ(srcs[i], 1u) << "round " << i / 2;      // node 0 wins the tie
    EXPECT_EQ(srcs[i + 1], 2u) << "round " << i / 2;
  }
  EXPECT_EQ(run(), srcs);  // and the order is reproducible
}

TEST(SwitchTest, PrioritySchedulingFavorsMarkedSource) {
  SwitchConfig cfg;
  cfg.arbitration = SwitchArbitration::kPriority;
  Star star(3, cfg);
  star.sw->SetSourcePriority(star.nodes[1]->self, 10);

  const PbrId sink = star.nodes[2]->self;
  // Node 0 floods first, node 1 sends a burst afterwards.
  for (int i = 0; i < 50; ++i) {
    star.nodes[0]->Send(sink);
  }
  for (int i = 0; i < 10; ++i) {
    star.nodes[1]->Send(sink);
  }
  star.engine.Run();
  ASSERT_EQ(star.nodes[2]->received.size(), 60u);
  // All of node 1's flits beat the tail of node 0's flood.
  std::size_t last_priority_pos = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    if (star.nodes[2]->received[i].flit.src == star.nodes[1]->self) {
      last_priority_pos = i;
    }
  }
  EXPECT_LT(last_priority_pos, 40u);
}

// Shared setup for the HoL experiments: node 2 is a slow sink (holds input
// credits for 5 us), node 3 is idle. Node 1 floods node 2; node 0 sends a
// mix toward both. Returns arrivals at node 3 at a fixed horizon plus the
// HoL counter.
struct HolResult {
  std::size_t idle_sink_arrivals;
  std::uint64_t hol_events;
};

HolResult RunHolExperiment(bool virtual_output_queues) {
  SwitchConfig cfg;
  cfg.virtual_output_queues = virtual_output_queues;
  LinkConfig link;  // senders: default deep buffers
  LinkConfig slow_link;
  slow_link.credits_per_vc = 2;  // the congested egress: shallow buffers
  slow_link.tx_queue_depth = 2;
  Star star(4, cfg, link, /*slow_node=*/2, /*slow_hold=*/FromUs(5), slow_link);

  for (int i = 0; i < 30; ++i) {
    star.engine.Schedule(FromNs(10) * static_cast<Tick>(i), [&star] {
      star.nodes[1]->Send(star.nodes[2]->self);
    });
  }
  for (int i = 0; i < 10; ++i) {
    star.engine.Schedule(FromNs(30) * static_cast<Tick>(i), [&star] {
      star.nodes[0]->Send(star.nodes[2]->self);
      star.nodes[0]->Send(star.nodes[3]->self);
    });
  }
  star.engine.RunUntil(FromUs(20));
  return HolResult{star.nodes[3]->received.size(), star.sw->stats().hol_blocked_events};
}

TEST(SwitchTest, HolBlockingCountedWithSingleFifoInputs) {
  const HolResult r = RunHolExperiment(/*virtual_output_queues=*/false);
  EXPECT_GT(r.hol_events, 0u);
}

TEST(SwitchTest, VirtualOutputQueuesAvoidHolBlocking) {
  const HolResult fifo = RunHolExperiment(false);
  const HolResult voq = RunHolExperiment(true);
  EXPECT_EQ(voq.hol_events, 0u);
  // VOQ lets the idle-sink traffic through while FIFO pins it behind the
  // congested head.
  EXPECT_GE(voq.idle_sink_arrivals, fifo.idle_sink_arrivals);
  EXPECT_EQ(voq.idle_sink_arrivals, 10u);
}

// Forwarding-order pin: seeded random traffic through a 6-port star, with a
// slow, shallow-buffered sink (node 5) so inputs contend and single-FIFO heads
// block. Every delivery is folded into a digest as (tick, out, src, txn, seq).
// A delivery is its forward shifted by the egress path's deterministic
// crossbar and link latency, so the digest pins which flit each output
// forwarded and when: the rr_next_input rotation, the ArrivesBefore
// tie-break, the weighted and priority picks and the ramp-up allocator's
// timing. The expected values were recorded from the arbiter that scanned
// every input for every output on every pass. The invariant sweep runs after
// every event.
struct OrderResult {
  std::uint64_t digest;
  std::uint64_t hol_events;
  std::uint64_t forwarded;
};

OrderResult RunRandomTraffic(SwitchArbitration arbitration, bool virtual_output_queues,
                             CreditAllocPolicy credit_alloc) {
  SwitchConfig cfg;
  cfg.arbitration = arbitration;
  cfg.virtual_output_queues = virtual_output_queues;
  cfg.credit_alloc = credit_alloc;
  cfg.credit_realloc_period = FromNs(200);
  LinkConfig slow_link;
  slow_link.credits_per_vc = 2;
  slow_link.tx_queue_depth = 2;
  Star star(6, cfg, LinkConfig{}, /*slow_node=*/5, /*slow_hold=*/FromNs(300), slow_link);
  star.engine.SetAuditCadence(1);
  star.sw->SetSourcePriority(star.nodes[2]->self, 5);
  star.sw->SetSourcePriority(star.nodes[4]->self, 2);

  Rng rng(0x5EED);
  for (int i = 0; i < 600; ++i) {
    const auto src = static_cast<std::size_t>(rng.NextBelow(6));
    PbrId dst = 0x0FFF;  // unroutable, ~2% of the traffic
    if (!rng.NextBool(0.02)) {
      // ~40% to the slow sink, the rest spread over the other nodes.
      std::size_t to = rng.NextBool(0.4) ? 5 : static_cast<std::size_t>(rng.NextBelow(5));
      if (to == src) {
        to = (to + 1) % 6;
      }
      dst = star.nodes[to]->self;
    }
    const auto channel = static_cast<Channel>(rng.NextBelow(kNumChannels));
    const Tick at = FromNs(static_cast<double>(rng.NextBelow(3000)));
    star.engine.Schedule(at, [&star, src, dst, channel] {
      star.nodes[src]->Send(dst, channel);
    });
  }
  star.engine.Run();

  RunDigest digest;
  for (std::size_t out = 0; out < star.nodes.size(); ++out) {
    for (const auto& a : star.nodes[out]->received) {
      digest.Fold(a.at);
      digest.Fold(out);
      digest.Fold(a.flit.src);
      digest.Fold(a.flit.txn_id);
      digest.Fold(a.flit.seq);
    }
  }
  return OrderResult{digest.value(), star.sw->stats().hol_blocked_events,
                     star.sw->stats().flits_forwarded};
}

TEST(SwitchTest, ForwardingOrderIsPinnedForEveryPolicy) {
  struct Case {
    SwitchArbitration arbitration;
    bool voq;
    CreditAllocPolicy alloc;
    OrderResult expected;
  };
  using A = SwitchArbitration;
  using C = CreditAllocPolicy;
  const Case cases[] = {
      {A::kFifo, false, C::kStatic, {0x9627a1c3f11b977aULL, 44948, 578}},
      {A::kFifo, false, C::kExponentialRampUp, {0x9627a1c3f11b977aULL, 44948, 578}},
      {A::kFifo, true, C::kStatic, {0x237098e32b31623bULL, 0, 578}},
      {A::kFifo, true, C::kExponentialRampUp, {0x237098e32b31623bULL, 0, 578}},
      {A::kRoundRobin, false, C::kStatic, {0x69f2c1964187fe2eULL, 46621, 578}},
      {A::kRoundRobin, false, C::kExponentialRampUp, {0x69f2c1964187fe2eULL, 46621, 578}},
      {A::kRoundRobin, true, C::kStatic, {0x46d3eea331c0cc7cULL, 0, 578}},
      {A::kRoundRobin, true, C::kExponentialRampUp, {0x46d3eea331c0cc7cULL, 0, 578}},
      {A::kWeighted, false, C::kStatic, {0x69f2c1964187fe2eULL, 46621, 578}},
      {A::kWeighted, false, C::kExponentialRampUp, {0x9232e6df22dc6da7ULL, 40008, 578}},
      {A::kWeighted, true, C::kStatic, {0x46d3eea331c0cc7cULL, 0, 578}},
      {A::kWeighted, true, C::kExponentialRampUp, {0x70b9ae18c3482823ULL, 0, 578}},
      {A::kPriority, false, C::kStatic, {0x063576f1c4a0a6eeULL, 41938, 578}},
      {A::kPriority, false, C::kExponentialRampUp, {0x063576f1c4a0a6eeULL, 41938, 578}},
      {A::kPriority, true, C::kStatic, {0x2c409014b2a700c4ULL, 0, 578}},
      {A::kPriority, true, C::kExponentialRampUp, {0x2c409014b2a700c4ULL, 0, 578}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("arbitration=" + std::to_string(static_cast<int>(c.arbitration)) +
                 " voq=" + std::to_string(c.voq) +
                 " alloc=" + std::to_string(static_cast<int>(c.alloc)));
    const OrderResult r = RunRandomTraffic(c.arbitration, c.voq, c.alloc);
    EXPECT_EQ(r.digest, c.expected.digest);
    EXPECT_EQ(r.hol_events, c.expected.hol_events);
    EXPECT_EQ(r.forwarded, c.expected.forwarded);
  }
}

TEST(SwitchTest, ExponentialRampUpGrowsHeavyInputWeight) {
  SwitchConfig cfg;
  cfg.credit_alloc = CreditAllocPolicy::kExponentialRampUp;
  cfg.credit_realloc_period = FromNs(100);
  cfg.arbitration = SwitchArbitration::kWeighted;
  Star star(3, cfg);

  // Node 0 sends steadily over 2 us; node 1 idles.
  const PbrId sink = star.nodes[2]->self;
  for (int i = 0; i < 200; ++i) {
    star.engine.Schedule(FromNs(10) * static_cast<Tick>(i), [&star, sink] {
      star.nodes[0]->Send(sink);
    });
  }
  star.engine.Run();
  const int port0 = star.sw->RouteFor(star.nodes[0]->self);
  const int port1 = star.sw->RouteFor(star.nodes[1]->self);
  EXPECT_GT(star.sw->InputWeight(port0), star.sw->InputWeight(port1));
}

TEST(InterconnectTest, RoutingReachesEveryAdapterPair) {
  Engine engine;
  FabricInterconnect fabric(&engine, 1);
  auto* sw0 = fabric.AddSwitch(SwitchConfig{}, "sw0");
  auto* sw1 = fabric.AddSwitch(SwitchConfig{}, "sw1");
  fabric.Connect(sw0, sw1, LinkConfig{});

  auto* h0 = fabric.AddHostAdapter(AdapterConfig{}, "h0");
  auto* h1 = fabric.AddHostAdapter(AdapterConfig{}, "h1");
  fabric.Connect(sw0, h0, LinkConfig{});
  fabric.Connect(sw1, h1, LinkConfig{});
  fabric.ConfigureRouting();

  EXPECT_EQ(fabric.HopCount(h0->id(), h1->id()), 3);  // h0-sw0-sw1-h1

  // h0 -> h1 crosses both switches.
  bool delivered = false;
  h1->SetMessageHandler([&](const FabricMessage&) { delivered = true; });
  h0->SendMessage(h1->id(), Channel::kMem, Opcode::kMsg, 1, 64, nullptr);
  engine.Run();
  EXPECT_TRUE(delivered);
}

TEST(InterconnectTest, MultiDomainGetsHbrLinksAndDefaultRoutes) {
  Engine engine;
  FabricInterconnect fabric(&engine, 1);
  auto* sw0 = fabric.AddSwitch(SwitchConfig{}, "sw0", /*domain=*/0);
  auto* sw1 = fabric.AddSwitch(SwitchConfig{}, "sw1", /*domain=*/1);
  fabric.Connect(sw0, sw1, LinkConfig{});
  auto* h0 = fabric.AddHostAdapter(AdapterConfig{}, "h0", 0);
  auto* h1 = fabric.AddHostAdapter(AdapterConfig{}, "h1", 1);
  fabric.Connect(sw0, h0, LinkConfig{});
  fabric.Connect(sw1, h1, LinkConfig{});
  fabric.ConfigureRouting();

  EXPECT_EQ(fabric.num_hbr_links(), 1u);
  EXPECT_EQ(DomainOf(h1->id()), 1);

  bool delivered = false;
  h1->SetMessageHandler([&](const FabricMessage&) { delivered = true; });
  h0->SendMessage(h1->id(), Channel::kMem, Opcode::kMsg, 1, 64, nullptr);
  engine.Run();
  EXPECT_TRUE(delivered);
}

TEST(InterconnectTest, DirectAttachWorksWithoutSwitch) {
  Engine engine;
  FabricInterconnect fabric(&engine, 1);
  auto* h0 = fabric.AddHostAdapter(AdapterConfig{}, "h0");
  auto* h1 = fabric.AddHostAdapter(AdapterConfig{}, "h1");
  fabric.ConnectDirect(h0, h1, LinkConfig{});
  fabric.ConfigureRouting();

  bool delivered = false;
  h1->SetMessageHandler([&](const FabricMessage&) { delivered = true; });
  h0->SendMessage(h1->id(), Channel::kMem, Opcode::kMsg, 1, 64, nullptr);
  engine.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.HopCount(h0->id(), h1->id()), 1);
}

}  // namespace
}  // namespace unifab
