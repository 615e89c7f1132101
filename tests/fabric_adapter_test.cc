// Adapter (FHA/FEA) tests: transaction segmentation, MSHR limiting,
// multi-source reassembly, messaging, and flit-mode behavior.

#include "src/fabric/adapter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

AdapterConfig FastAdapter(FlitMode mode = FlitMode::k68B) {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(20);
  cfg.response_proc_latency = FromNs(20);
  cfg.max_outstanding = 4;
  cfg.flit_mode = mode;
  return cfg;
}

DramConfig FastDram() {
  DramConfig cfg;
  cfg.access_latency = FromNs(30);
  cfg.bandwidth_gbps = 25.6;
  return cfg;
}

struct Rig {
  explicit Rig(int num_hosts = 1, FlitMode mode = FlitMode::k68B,
               LinkConfig link = LinkConfig{})
      : fabric(&engine, 77) {
    link.flit_mode = mode;
    auto* sw = fabric.AddSwitch(SwitchConfig{}, "sw");
    dram = std::make_unique<DramDevice>(&engine, FastDram(), "dram");
    fea = fabric.AddEndpointAdapter(FastAdapter(mode), "fea", dram.get());
    fabric.Connect(sw, fea, link);
    for (int i = 0; i < num_hosts; ++i) {
      const std::string n = std::to_string(i);
      hosts.push_back(fabric.AddHostAdapter(FastAdapter(mode), "h" + n));
      fabric.Connect(sw, hosts.back(), link);
    }
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  EndpointAdapter* fea;
  std::vector<HostAdapter*> hosts;
};

TEST(AdapterTest, SingleReadCompletes) {
  Rig rig;
  bool done = false;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.addr = 0x100;
  req.bytes = 64;
  rig.hosts[0]->Submit(rig.fea->id(), req, [&](bool ok) { done = ok; });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.hosts[0]->stats().reads_completed, 1u);
  EXPECT_EQ(rig.dram->stats().reads, 1u);
}

TEST(AdapterTest, LargeReadSegmentsResponseIntoFlits) {
  Rig rig;
  bool done = false;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.bytes = 4096;  // 64 response flits in 68B mode
  rig.hosts[0]->Submit(rig.fea->id(), req, [&](bool ok) { done = ok; });
  rig.engine.Run();
  EXPECT_TRUE(done);
  // 1 request flit + 64 response flits traverse the switch.
  EXPECT_EQ(rig.fabric.switches()[0]->stats().flits_forwarded, 65u);
}

TEST(AdapterTest, WriteCarriesPayloadFlitsAndAcks) {
  Rig rig;
  bool done = false;
  MemRequest req;
  req.type = MemRequest::Type::kWrite;
  req.bytes = 1024;  // 16 payload flits
  rig.hosts[0]->Submit(rig.fea->id(), req, [&](bool ok) { done = ok; });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.hosts[0]->stats().writes_completed, 1u);
  EXPECT_EQ(rig.dram->stats().writes, 1u);
}

TEST(AdapterTest, MshrLimitQueuesExcessRequests) {
  Rig rig;  // max_outstanding = 4
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    MemRequest req;
    req.type = MemRequest::Type::kRead;
    req.addr = static_cast<std::uint64_t>(i) * 4096;
    req.bytes = 64;
    rig.hosts[0]->Submit(rig.fea->id(), req, [&](bool ok) { EXPECT_TRUE(ok); ++completed; });
  }
  EXPECT_EQ(rig.hosts[0]->Outstanding(), 4u);
  EXPECT_EQ(rig.hosts[0]->QueuedRequests(), 6u);
  rig.engine.Run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(rig.hosts[0]->Outstanding(), 0u);
}

// Regression: transactions from distinct hosts share the FEA; reassembly
// must key on (src, txn), not txn alone, or multi-flit writes from
// different hosts corrupt each other's flit counts and wedge.
TEST(AdapterTest, ConcurrentMultiFlitWritesFromManyHostsAllComplete) {
  Rig rig(/*num_hosts=*/3);
  int completed = 0;
  for (int round = 0; round < 8; ++round) {
    for (auto* host : rig.hosts) {
      MemRequest req;
      req.type = MemRequest::Type::kWrite;
      req.addr = static_cast<std::uint64_t>(completed) * 8192;
      req.bytes = 4096;  // 64 flits each — heavy interleaving at the FEA
      host->Submit(rig.fea->id(), req, [&](bool ok) { EXPECT_TRUE(ok); ++completed; });
    }
  }
  rig.engine.Run();
  EXPECT_EQ(completed, 24);
}

TEST(AdapterTest, MessagesDeliverWithTagAndBody) {
  Rig rig;
  FabricMessage got;
  rig.fea->SetMessageHandler([&](const FabricMessage& msg) { got = msg; });
  auto body = std::make_shared<int>(1234);
  rig.hosts[0]->SendMessage(rig.fea->id(), Channel::kMem, Opcode::kMsg, 0xBEEF, 256, body);
  rig.engine.Run();
  EXPECT_EQ(got.tag, 0xBEEFu);
  EXPECT_EQ(got.bytes, 256u);
  EXPECT_EQ(got.src, rig.hosts[0]->id());
  ASSERT_NE(got.body, nullptr);
  EXPECT_EQ(*std::static_pointer_cast<int>(got.body), 1234);
}

TEST(AdapterTest, DispatcherRoutesByServiceId) {
  Rig rig;
  MessageDispatcher dispatch(rig.fea);
  int svc_a = 0;
  int svc_b = 0;
  dispatch.RegisterService(10, [&](const FabricMessage&) { ++svc_a; });
  dispatch.RegisterService(11, [&](const FabricMessage&) { ++svc_b; });

  rig.hosts[0]->SendMessage(rig.fea->id(), Channel::kMem, Opcode::kMsg, MakeTag(10, 1), 64,
                            nullptr);
  rig.hosts[0]->SendMessage(rig.fea->id(), Channel::kMem, Opcode::kMsg, MakeTag(11, 2), 64,
                            nullptr);
  rig.hosts[0]->SendMessage(rig.fea->id(), Channel::kMem, Opcode::kMsg, MakeTag(12, 3), 64,
                            nullptr);  // unclaimed service: dropped silently
  rig.engine.Run();
  EXPECT_EQ(svc_a, 1);
  EXPECT_EQ(svc_b, 1);
}

TEST(AdapterTest, TagHelpersRoundTrip) {
  const std::uint64_t tag = MakeTag(42, 0x123456789AULL);
  EXPECT_EQ(ServiceOf(tag), 42);
  EXPECT_EQ(TagPayload(tag), 0x123456789AULL);
}

// Property sweep: for every flit mode and request size, the number of DRAM
// bytes touched equals the request size and everything completes.
// gtest names each case by the raw bytes of its parameter, so the struct has
// no implicit padding: left implicit, the three bytes after `mode` hold stack
// leftovers and the case names change with the build and its environment.
struct ModeSize {
  ModeSize(FlitMode m, std::uint32_t b) : mode(m), bytes(b) {}
  FlitMode mode;
  std::uint8_t pad[3] = {};
  std::uint32_t bytes;
};
static_assert(std::has_unique_object_representations_v<ModeSize>);

class AdapterModeTest : public ::testing::TestWithParam<ModeSize> {};

TEST_P(AdapterModeTest, RequestsCompleteAcrossModesAndSizes) {
  const FlitMode mode = GetParam().mode;
  const std::uint32_t bytes = GetParam().bytes;
  Rig rig(1, mode);
  bool read_done = false;
  bool write_done = false;
  MemRequest rd;
  rd.type = MemRequest::Type::kRead;
  rd.bytes = bytes;
  rig.hosts[0]->Submit(rig.fea->id(), rd, [&](bool ok) { read_done = ok; });
  MemRequest wr;
  wr.type = MemRequest::Type::kWrite;
  wr.addr = 1 << 20;
  wr.bytes = bytes;
  rig.hosts[0]->Submit(rig.fea->id(), wr, [&](bool ok) { write_done = ok; });
  rig.engine.Run();
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(write_done);
  EXPECT_EQ(rig.dram->stats().bytes, 2u * bytes);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, AdapterModeTest,
    ::testing::Values(ModeSize{FlitMode::k68B, 64}, ModeSize{FlitMode::k68B, 100},
                      ModeSize{FlitMode::k68B, 4096}, ModeSize{FlitMode::k256B, 64},
                      ModeSize{FlitMode::k256B, 192}, ModeSize{FlitMode::k256B, 4096},
                      ModeSize{FlitMode::k256B, 16384}));

TEST(AdapterTest, Wide256BModeUsesFewerFlits) {
  LinkConfig link68;
  link68.flit_mode = FlitMode::k68B;
  Rig narrow(1, FlitMode::k68B, link68);
  LinkConfig link256;
  link256.flit_mode = FlitMode::k256B;
  Rig wide(1, FlitMode::k256B, link256);

  for (Rig* rig : {&narrow, &wide}) {
    MemRequest req;
    req.type = MemRequest::Type::kWrite;
    req.bytes = 4096;
    rig->hosts[0]->Submit(rig->fea->id(), req, [](bool ok) { EXPECT_TRUE(ok); });
    rig->engine.Run();
  }
  // 68B mode: 64 payload flits; 256B mode: ceil(4096/192) = 22.
  const auto& narrow_stats = narrow.fabric.switches()[0]->stats();
  const auto& wide_stats = wide.fabric.switches()[0]->stats();
  EXPECT_GT(narrow_stats.flits_forwarded, 2 * wide_stats.flits_forwarded);
}

TEST(AdapterTest, TransactionLatencyIsRecorded) {
  Rig rig;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.bytes = 64;
  rig.hosts[0]->Submit(rig.fea->id(), req, [](bool ok) { EXPECT_TRUE(ok); });
  rig.engine.Run();
  ASSERT_EQ(rig.hosts[0]->stats().txn_latency_ns.Count(), 1u);
  EXPECT_GT(rig.hosts[0]->stats().txn_latency_ns.Mean(), 100.0);
}

}  // namespace
}  // namespace unifab
