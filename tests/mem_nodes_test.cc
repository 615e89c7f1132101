// Tests for the four fabric memory-node types (paper §3 Difference #2):
// CPU-less NUMA expander, CC-NUMA directory coherence (the unbounded
// CoherentDirectory), non-CC NUMA software coherence, and COMA attraction
// memory.

#include <gtest/gtest.h>

#include <memory>

#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/coherent.h"
#include "src/mem/coma.h"
#include "src/mem/dram.h"
#include "src/mem/expander.h"
#include "src/mem/noncc.h"
#include "src/topo/presets.h"

namespace unifab {

// Test-only hook (same pattern as fabric_switch_mem_test.cc): reaches into a
// port's block cache to model a silent eviction and to seed a deliberate
// violation of the mem/coherent/sharers_conserved audit check.
class AuditTestPeer {
 public:
  static SetAssocCache& PortCache(CoherentPort& p) { return p.cache_; }
};

namespace {

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

// ------------------------- MemoryExpander --------------------------------

class ExpanderTest : public ::testing::Test {
 protected:
  ExpanderTest()
      : dram_(&engine_, DramConfig{1ULL << 30, 16, FromNs(60), 25.6, 64}, "d"),
        exp_(&engine_, &dram_, "exp") {}

  Engine engine_;
  DramDevice dram_;
  MemoryExpander exp_;
};

TEST_F(ExpanderTest, PartitionsAllocateSequentially) {
  const std::uint64_t a = exp_.CreatePartition(1, 1 << 20);
  const std::uint64_t b = exp_.CreatePartition(2, 1 << 20);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u << 20);
  EXPECT_EQ(exp_.BytesAllocated(), 2u << 20);
}

TEST_F(ExpanderTest, OwnPartitionAccessIsClean) {
  exp_.CreatePartition(1, 1 << 20);
  exp_.SetCurrentRequester(1);
  bool done = false;
  exp_.HandleRead(0, 64, [&] { done = true; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(exp_.stats().partition_faults, 0u);
}

TEST_F(ExpanderTest, ForeignPartitionAccessCountsFault) {
  exp_.CreatePartition(1, 1 << 20);
  exp_.SetCurrentRequester(2);
  exp_.HandleWrite(0, 64, nullptr);
  engine_.Run();
  EXPECT_EQ(exp_.stats().partition_faults, 1u);
}

TEST_F(ExpanderTest, SharedRegionSerializesSameLineAccess) {
  const std::uint64_t base = exp_.CreateSharedRegion(1 << 20);
  Tick first = 0;
  Tick second = 0;
  exp_.HandleWrite(base, 64, [&] { first = engine_.Now(); });
  exp_.HandleWrite(base, 64, [&] { second = engine_.Now(); });
  engine_.Run();
  EXPECT_GT(second, first);
  EXPECT_EQ(exp_.stats().serialized_conflicts, 1u);
}

TEST_F(ExpanderTest, SharedRegionDifferentLinesProceedInParallel) {
  const std::uint64_t base = exp_.CreateSharedRegion(1 << 20);
  exp_.HandleWrite(base, 64, nullptr);
  exp_.HandleWrite(base + 128, 64, nullptr);
  engine_.Run();
  EXPECT_EQ(exp_.stats().serialized_conflicts, 0u);
}

TEST_F(ExpanderTest, CapsDescribeCpuLessNuma) {
  const MemoryNodeCaps caps = exp_.Caps(42);
  EXPECT_EQ(caps.type, MemoryNodeType::kCpuLessNuma);
  EXPECT_FALSE(caps.has_processing);
  EXPECT_TRUE(caps.supports_sharing);
}

// --------------------------- CC-NUMA -------------------------------------

// Two hosts + one FAM-side directory, all on a real switch fabric.
class CcNumaTest : public ::testing::Test {
 protected:
  CcNumaTest() : fabric_(&engine_, 5) {
    auto* sw = fabric_.AddSwitch(FabrexSwitch(), "sw");
    dram_ = std::make_unique<DramDevice>(&engine_, OmegaLocalDram(), "fam-dram");
    expander_ = std::make_unique<MemoryExpander>(&engine_, dram_.get(), "exp");
    expander_->CreateCoherentWindow(dram_->config().capacity_bytes);

    AdapterConfig fast_fea = OmegaEndpointAdapter();
    fast_fea.request_proc_latency = FromNs(50);
    fea_ = fabric_.AddEndpointAdapter(fast_fea, "fea", expander_.get());
    fabric_.Connect(sw, fea_, OmegaLink());
    fea_dispatch_ = std::make_unique<MessageDispatcher>(fea_);

    const CoherentConfig cfg = CoherentConfig::CcNuma();
    dir_ = std::make_unique<CoherentDirectory>(&engine_, cfg, fea_dispatch_.get(),
                                               expander_.get(), "dir");
    for (int i = 0; i < 2; ++i) {
      const std::string n = std::to_string(i);
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric_.AddHostAdapter(fha, "h" + n);
      fabric_.Connect(sw, adapter, OmegaLink());
      host_dispatch_[i] = std::make_unique<MessageDispatcher>(adapter);
      port_[i] = std::make_unique<CoherentPort>(&engine_, cfg, host_dispatch_[i].get(),
                                                dir_.get(), "port" + n);
    }
    fabric_.ConfigureRouting();
  }

  Engine engine_;
  FabricInterconnect fabric_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<MemoryExpander> expander_;
  EndpointAdapter* fea_ = nullptr;
  std::unique_ptr<MessageDispatcher> fea_dispatch_;
  std::unique_ptr<CoherentDirectory> dir_;
  std::unique_ptr<MessageDispatcher> host_dispatch_[2];
  std::unique_ptr<CoherentPort> port_[2];
};

TEST_F(CcNumaTest, ReadMissFetchesAndShares) {
  bool done = false;
  port_[0]->Read(0x1000, [&](bool ok) { done = ok; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(port_[0]->HoldsBlock(0x1000));
  EXPECT_FALSE(port_[0]->HoldsModified(0x1000));
  EXPECT_EQ(dir_->StateOf(0x1000), CoherentDirectory::BlockState::kShared);
  EXPECT_EQ(dir_->SharerCount(0x1000), 1u);
}

TEST_F(CcNumaTest, SecondReaderJoinsSharerList) {
  port_[0]->Read(0x1000, nullptr);
  engine_.Run();
  port_[1]->Read(0x1000, nullptr);
  engine_.Run();
  EXPECT_EQ(dir_->SharerCount(0x1000), 2u);
}

TEST_F(CcNumaTest, WriteInvalidatesOtherSharers) {
  port_[0]->Read(0x1000, nullptr);
  port_[1]->Read(0x1000, nullptr);
  engine_.Run();
  ASSERT_EQ(dir_->SharerCount(0x1000), 2u);

  bool done = false;
  port_[1]->Write(0x1000, [&](bool ok) { done = ok; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(dir_->StateOf(0x1000), CoherentDirectory::BlockState::kModified);
  EXPECT_FALSE(port_[0]->HoldsBlock(0x1000));
  EXPECT_TRUE(port_[1]->HoldsModified(0x1000));
  EXPECT_GE(port_[0]->stats().invalidations_received, 1u);
}

TEST_F(CcNumaTest, ReadAfterRemoteWriteRecallsOwner) {
  port_[0]->Write(0x2000, nullptr);
  engine_.Run();
  ASSERT_EQ(dir_->StateOf(0x2000), CoherentDirectory::BlockState::kModified);

  bool done = false;
  port_[1]->Read(0x2000, [&](bool ok) { done = ok; });
  engine_.Run();
  EXPECT_TRUE(done);
  // Owner downgraded to sharer; both hold the block.
  EXPECT_EQ(dir_->StateOf(0x2000), CoherentDirectory::BlockState::kShared);
  EXPECT_EQ(dir_->SharerCount(0x2000), 2u);
  EXPECT_GE(port_[0]->stats().recalls_received, 1u);
  EXPECT_FALSE(port_[0]->HoldsModified(0x2000));
}

TEST_F(CcNumaTest, UpgradeFromSharedToModified) {
  port_[0]->Read(0x3000, nullptr);
  engine_.Run();
  port_[0]->Write(0x3000, nullptr);
  engine_.Run();
  EXPECT_EQ(dir_->StateOf(0x3000), CoherentDirectory::BlockState::kModified);
  EXPECT_GE(port_[0]->stats().upgrades, 1u);
}

TEST_F(CcNumaTest, WriteHitInModifiedIsLocal) {
  port_[0]->Write(0x4000, nullptr);
  engine_.Run();
  const auto misses_before = port_[0]->stats().miss_latency_ns.Count();
  bool done = false;
  port_[0]->Write(0x4000, [&](bool ok) { done = ok; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(port_[0]->stats().miss_latency_ns.Count(), misses_before);
  EXPECT_GE(port_[0]->stats().write_hits, 1u);
}

TEST_F(CcNumaTest, CoherenceMissesCostFabricRoundTrips) {
  port_[0]->Read(0x5000, nullptr);
  engine_.Run();
  // A protocol miss costs two message legs + DRAM: far above local hit cost.
  EXPECT_GT(port_[0]->stats().miss_latency_ns.Mean(), 400.0);
}

TEST_F(CcNumaTest, PingPongWritesAlternateOwnership) {
  for (int round = 0; round < 4; ++round) {
    port_[round % 2]->Write(0x6000, nullptr);
    engine_.Run();
  }
  EXPECT_GE(dir_->stats().recalls, 3u);
  EXPECT_EQ(dir_->StateOf(0x6000), CoherentDirectory::BlockState::kModified);
  EXPECT_TRUE(port_[1]->HoldsModified(0x6000));
}

// Regression: a clean eviction notice (PutS) that crosses an in-flight Inv
// must stand in for the ack. Before identity-tracked inv_waiting, the
// directory counted acks numerically, so the evicting port's unconditional
// later InvAck double-decremented and a concurrent writer could be granted
// while another sharer still held the line.
TEST_F(CcNumaTest, EvictionNoticeCrossingInvCompletesTheWrite) {
  port_[0]->Read(0x5000, nullptr);
  engine_.Run();
  ASSERT_EQ(dir_->StateOf(0x5000), CoherentDirectory::BlockState::kShared);

  bool wrote = false;
  port_[1]->Write(0x5000, [&](bool ok) { wrote = ok; });
  // Advance into the window where the directory has sent the Inv but port 0
  // has not yet received it.
  const Tick probe_limit = engine_.Now() + FromUs(5);
  while (dir_->stats().invalidations == 0) {
    ASSERT_LT(engine_.Now(), probe_limit) << "Inv never sent";
    engine_.RunUntil(engine_.Now() + FromNs(25));
  }
  ASSERT_EQ(port_[0]->stats().invalidations_received, 0u);

  // Port 0's cache silently drops the clean line (capacity eviction) and the
  // eviction notice races the Inv to the directory.
  AuditTestPeer::PortCache(*port_[0]).Invalidate(0x5000);
  auto puts = std::make_shared<CohMsg>();
  puts->op = CohOp::kPutS;
  puts->block = 0x5000;
  puts->requester = 0;
  host_dispatch_[0]->Send(dir_->fabric_id(), kSvcCoherent,
                          static_cast<std::uint64_t>(CohOp::kPutS), 16, puts, Channel::kCache);
  engine_.Run();

  EXPECT_TRUE(wrote);
  EXPECT_EQ(dir_->stats().implicit_evict_acks, 1u);
  // Port 0 still answered the Inv when it eventually arrived; the directory
  // must discard that ack instead of mis-crediting it.
  EXPECT_EQ(port_[0]->stats().invalidations_received, 1u);
  EXPECT_EQ(dir_->stats().stale_acks, 1u);
  EXPECT_EQ(dir_->StateOf(0x5000), CoherentDirectory::BlockState::kModified);
  EXPECT_TRUE(port_[1]->HoldsModified(0x5000));
  EXPECT_TRUE(engine_.audit().Sweep().empty());
}

// Regression: an InvAck from a port the directory is not waiting on (spoofed
// here; previously reachable via the eviction race above) must not perturb
// sharer bookkeeping or unblock a transaction early.
TEST_F(CcNumaTest, InvAckFromNonWaiterIsCountedStaleAndIgnored) {
  port_[0]->Read(0x5000, nullptr);
  engine_.Run();
  ASSERT_EQ(dir_->SharerCount(0x5000), 1u);

  auto spoof = std::make_shared<CohMsg>();
  spoof->op = CohOp::kInvAck;
  spoof->block = 0x5000;
  spoof->requester = 1;
  host_dispatch_[1]->Send(dir_->fabric_id(), kSvcCoherent,
                          static_cast<std::uint64_t>(CohOp::kInvAck), 16, spoof,
                          Channel::kCache);
  engine_.Run();
  EXPECT_EQ(dir_->stats().stale_acks, 1u);
  EXPECT_EQ(dir_->SharerCount(0x5000), 1u);
  EXPECT_EQ(dir_->StateOf(0x5000), CoherentDirectory::BlockState::kShared);

  // The protocol still works afterwards.
  bool wrote = false;
  port_[1]->Write(0x5000, [&](bool ok) { wrote = ok; });
  engine_.Run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(port_[1]->HoldsModified(0x5000));
  EXPECT_TRUE(engine_.audit().Sweep().empty());
}

// The mem/coherent/sharers_conserved check: every valid line in a port
// cache must be tracked by the home directory.
TEST_F(CcNumaTest, AuditCatchesUntrackedPortLine) {
  port_[0]->Read(0x5000, nullptr);
  engine_.Run();
  EXPECT_TRUE(engine_.audit().Sweep().empty());

  AuditTestPeer::PortCache(*port_[0]).Insert(0x7000, /*dirty=*/false);
  EXPECT_TRUE(AnyPathEndsWith(engine_.audit().Sweep(), "mem/coherent/sharers_conserved"));
  AuditTestPeer::PortCache(*port_[0]).Invalidate(0x7000);
  EXPECT_TRUE(engine_.audit().Sweep().empty());
}

// --------------------------- Non-CC NUMA ---------------------------------

class NonCcTest : public ::testing::Test {
 protected:
  NonCcTest() : fabric_(&engine_, 9) {
    auto* sw = fabric_.AddSwitch(FabrexSwitch(), "sw");
    dram_ = std::make_unique<DramDevice>(&engine_, OmegaLocalDram(), "fam-dram");
    auto* fea = fabric_.AddEndpointAdapter(OmegaEndpointAdapter(), "fea", dram_.get());
    fea_link_ = fabric_.Connect(sw, fea, OmegaLink());
    for (int i = 0; i < 2; ++i) {
      const std::string n = std::to_string(i);
      auto* fha = fabric_.AddHostAdapter(OmegaHostAdapter(), "h" + n);
      fabric_.Connect(sw, fha, OmegaLink());
      port_[i] = std::make_unique<NonCcPort>(&engine_, NonCcConfig{}, fha, fea->id(), &oracle_,
                                             "p" + n);
    }
    fabric_.ConfigureRouting();
  }

  Engine engine_;
  FabricInterconnect fabric_;
  std::unique_ptr<DramDevice> dram_;
  Link* fea_link_ = nullptr;
  SharedStateOracle oracle_;
  std::unique_ptr<NonCcPort> port_[2];
};

TEST_F(NonCcTest, ReadMissFetchesThenHitsLocally) {
  bool stale = true;
  port_[0]->Read(0x100, [&](bool s) { stale = s; });
  engine_.Run();
  EXPECT_FALSE(stale);
  EXPECT_TRUE(port_[0]->Holds(0x100));
  EXPECT_EQ(port_[0]->stats().read_misses, 1u);
  port_[0]->Read(0x100, nullptr);
  engine_.Run();
  EXPECT_EQ(port_[0]->stats().read_hits, 1u);
}

TEST_F(NonCcTest, WritesStayLocalUntilFlush) {
  port_[0]->Write(0x100, nullptr);
  engine_.Run();
  EXPECT_EQ(oracle_.Current(0x100), 0u);  // remote unaware
  bool flushed = false;
  port_[0]->FlushBlock(0x100, [&] { flushed = true; });
  engine_.Run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(oracle_.Current(0x100), 1u);
}

TEST_F(NonCcTest, StaleReadWithoutInvalidateIsObservable) {
  // Port 1 caches the block, then port 0 updates it remotely.
  port_[1]->Read(0x200, nullptr);
  engine_.Run();
  port_[0]->Write(0x200, nullptr);
  port_[0]->FlushBlock(0x200, nullptr);
  engine_.Run();

  bool stale = false;
  port_[1]->Read(0x200, [&](bool s) { stale = s; });
  engine_.Run();
  EXPECT_TRUE(stale);
  EXPECT_GE(port_[1]->stats().stale_reads, 1u);
}

TEST_F(NonCcTest, InvalidateRestoresFreshness) {
  port_[1]->Read(0x200, nullptr);
  engine_.Run();
  port_[0]->Write(0x200, nullptr);
  port_[0]->FlushBlock(0x200, nullptr);
  engine_.Run();

  port_[1]->InvalidateBlock(0x200);
  bool stale = true;
  port_[1]->Read(0x200, [&](bool s) { stale = s; });
  engine_.Run();
  EXPECT_FALSE(stale);
}

TEST_F(NonCcTest, FlushAllPushesEveryDirtyBlock) {
  for (int i = 0; i < 8; ++i) {
    port_[0]->Write(0x1000 + static_cast<std::uint64_t>(i) * 64, nullptr);
  }
  engine_.Run();
  bool done = false;
  port_[0]->FlushAll([&] { done = true; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_GE(port_[0]->stats().flushes, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(oracle_.Current(0x1000 + static_cast<std::uint64_t>(i) * 64), 1u);
  }
}

TEST_F(NonCcTest, FailedFetchAndFlushCompleteWithoutCachingOrBumping) {
  port_[0]->Write(0x300, nullptr);
  engine_.Run();
  // The node's link is down: both requests end at the MSHR deadline.
  fea_link_->Fail();
  int reads = 0;
  port_[0]->Read(0x100, [&](bool) { ++reads; });
  int flushes = 0;
  port_[0]->FlushBlock(0x300, [&] { ++flushes; });
  engine_.Run();
  EXPECT_EQ(reads, 1);
  EXPECT_FALSE(port_[0]->Holds(0x100));
  EXPECT_EQ(port_[0]->stats().failed_fetches, 1u);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(port_[0]->stats().failed_flushes, 1u);
  EXPECT_EQ(oracle_.Current(0x300), 0u);  // the write never reached the node

  // The failed flush left the block dirty: after recovery a second flush
  // delivers the write.
  fea_link_->Recover();
  port_[0]->FlushBlock(0x300, [&] { ++flushes; });
  engine_.Run();
  EXPECT_EQ(flushes, 2);
  EXPECT_EQ(port_[0]->stats().failed_flushes, 1u);
  EXPECT_EQ(oracle_.Current(0x300), 1u);
  EXPECT_EQ(port_[0]->CachedVersion(0x300), 1u);
}

// ------------------------------ COMA -------------------------------------

class ComaTest : public ::testing::Test {
 protected:
  ComaTest() {
    ComaConfig cfg;
    cfg.num_nodes = 4;
    cfg.blocks_per_node = 8;
    coma_ = std::make_unique<ComaSystem>(&engine_, cfg);
  }

  Engine engine_;
  std::unique_ptr<ComaSystem> coma_;
};

TEST_F(ComaTest, LocalHitIsCheap) {
  coma_->SeedBlock(0, 0x0);
  Tick t0 = engine_.Now();
  bool done = false;
  coma_->Read(0, 0x0, [&] { done = true; });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine_.Now() - t0, FromNs(150));
  EXPECT_EQ(coma_->stats().hits, 1u);
}

TEST_F(ComaTest, ReadMissReplicates) {
  coma_->SeedBlock(0, 0x0);
  coma_->Read(3, 0x0, nullptr);
  engine_.Run();
  EXPECT_TRUE(coma_->NodeHolds(0, 0x0));
  EXPECT_TRUE(coma_->NodeHolds(3, 0x0));
  EXPECT_EQ(coma_->CopyCount(0x0), 2);
  EXPECT_EQ(coma_->stats().replications, 1u);
}

TEST_F(ComaTest, WriteMigratesAndInvalidatesReplicas) {
  coma_->SeedBlock(0, 0x0);
  coma_->Read(1, 0x0, nullptr);
  coma_->Read(2, 0x0, nullptr);
  engine_.Run();
  ASSERT_EQ(coma_->CopyCount(0x0), 3);

  coma_->Write(3, 0x0, nullptr);
  engine_.Run();
  EXPECT_EQ(coma_->CopyCount(0x0), 1);
  EXPECT_TRUE(coma_->NodeHolds(3, 0x0));
  EXPECT_GE(coma_->stats().invalidations, 3u);
  EXPECT_EQ(coma_->stats().migrations, 1u);
}

TEST_F(ComaTest, FartherHoldersCostMoreDirectoryHops) {
  coma_->SeedBlock(1, 0x0);   // sibling of node 0 (distance 2)
  coma_->SeedBlock(3, 0x40);  // far subtree (distance 4 from node 0)

  Tick near_latency = 0;
  coma_->Read(0, 0x0, nullptr);
  engine_.Run();
  near_latency = engine_.Now();

  Engine fresh;  // measure far access in the same system: use deltas instead
  const Tick t1 = engine_.Now();
  coma_->Read(0, 0x40, nullptr);
  engine_.Run();
  const Tick far_latency = engine_.Now() - t1;
  EXPECT_GT(far_latency, near_latency);
}

TEST_F(ComaTest, LastCopyEvictionInjectsInsteadOfDropping) {
  // Fill node 0 beyond capacity with unique blocks; evicted last copies
  // must reappear on some other node.
  for (int i = 0; i < 12; ++i) {
    coma_->SeedBlock(0, static_cast<std::uint64_t>(i) * 64);
  }
  EXPECT_GE(coma_->stats().injections, 4u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_GE(coma_->CopyCount(static_cast<std::uint64_t>(i) * 64), 1)
        << "block " << i << " lost";
  }
}

TEST_F(ComaTest, ReplicaEvictionIsSafeToDrop) {
  coma_->SeedBlock(0, 0x0);
  coma_->Read(1, 0x0, nullptr);  // replica on node 1
  engine_.Run();
  // Fill node 1 with other blocks to force the replica out.
  for (int i = 1; i <= 8; ++i) {
    coma_->SeedBlock(1, static_cast<std::uint64_t>(i) * 64);
  }
  EXPECT_FALSE(coma_->NodeHolds(1, 0x0));
  EXPECT_EQ(coma_->CopyCount(0x0), 1);  // original still on node 0
}

}  // namespace
}  // namespace unifab
