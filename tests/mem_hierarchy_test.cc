// DRAM-device and memory-hierarchy unit tests: banking, write-back
// behavior, MSHR fairness, prefetching, flush/invalidate semantics.

#include "src/mem/hierarchy.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/mem/dram.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

// ------------------------------- DRAM ------------------------------------

TEST(DramTest, SingleAccessTakesLatencyPlusTransfer) {
  Engine engine;
  DramDevice dram(&engine, OmegaLocalDram(), "d");
  Tick done_at = 0;
  dram.Access(0, 64, false, [&] { done_at = engine.Now(); });
  engine.Run();
  // 60 ns access + 2.5 ns transfer.
  EXPECT_EQ(done_at, FromNs(62.5));
}

TEST(DramTest, SameBankSerializes) {
  Engine engine;
  DramConfig cfg = OmegaLocalDram();
  cfg.num_banks = 4;
  DramDevice dram(&engine, cfg, "d");
  Tick first = 0;
  Tick second = 0;
  // Same bank: line addresses 4 banks' stride apart.
  dram.Access(0, 64, false, [&] { first = engine.Now(); });
  dram.Access(4 * 64, 64, false, [&] { second = engine.Now(); });
  engine.Run();
  EXPECT_EQ(second - first, FromNs(62.5));
}

TEST(DramTest, DifferentBanksOverlap) {
  Engine engine;
  DramConfig cfg = OmegaLocalDram();
  cfg.num_banks = 4;
  DramDevice dram(&engine, cfg, "d");
  Tick first = 0;
  Tick second = 0;
  dram.Access(0, 64, false, [&] { first = engine.Now(); });
  dram.Access(64, 64, false, [&] { second = engine.Now(); });
  engine.Run();
  EXPECT_EQ(first, second);  // parallel banks
}

TEST(DramTest, LargeTransferScalesWithBandwidth) {
  Engine engine;
  DramDevice dram(&engine, OmegaLocalDram(), "d");
  Tick done_at = 0;
  dram.Access(0, 64 * 1024, false, [&] { done_at = engine.Now(); });
  engine.Run();
  // 60 ns + 65536B / 25.6 GB/s = 60 + 2560 ns.
  EXPECT_EQ(done_at, FromNs(2620.0));
}

// ---------------------------- Hierarchy ----------------------------------

struct HierRig {
  explicit HierRig(HierarchyConfig cfg = OmegaHostHierarchy())
      : dram(&engine, OmegaLocalDram(), "dram"), hier(&engine, cfg, "core") {
    hier.MapLocal(0, 1ULL << 32, &dram);
  }

  Engine engine;
  DramDevice dram;
  MemoryHierarchy hier;
};

TEST(HierarchyTest, MissFillsL1AndVictimsCascade) {
  HierRig rig;
  rig.hier.Access(0x1000, false, nullptr);
  rig.engine.Run();
  // Fills land in L1; the L2 holds only L1 victims (victim-fill hierarchy).
  EXPECT_TRUE(rig.hier.l1().Contains(0x1000));
  EXPECT_FALSE(rig.hier.l2().Contains(0x1000));
  EXPECT_EQ(rig.hier.stats().local_mem_accesses, 1u);

  // Conflict-evict 0x1000 from L1 (8-way, so 8 same-set lines push it out):
  // the victim must appear in L2.
  const std::uint64_t set_stride = rig.hier.l1().num_sets() * 64;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    rig.hier.Access(0x1000 + i * set_stride, false, nullptr);
  }
  rig.engine.Run();
  EXPECT_FALSE(rig.hier.l1().Contains(0x1000));
  EXPECT_TRUE(rig.hier.l2().Contains(0x1000));
}

TEST(HierarchyTest, StoreMissDirtiesLineAndEvictionWritesBack) {
  HierarchyConfig cfg = OmegaHostHierarchy();
  cfg.l1 = CacheConfig{1024, 64, 2};  // tiny L1: 8 sets
  cfg.l2 = CacheConfig{2048, 64, 2};  // tiny L2: forces eviction to memory
  HierRig rig(cfg);

  rig.hier.Access(0x0, true, nullptr);
  rig.engine.Run();
  EXPECT_TRUE(rig.hier.l1().IsDirty(0x0));

  // Conflict-evict through both levels: same set addresses.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    rig.hier.Access(i * 2048, true, nullptr);
    rig.engine.Run();
  }
  EXPECT_GE(rig.hier.stats().writebacks_to_memory, 1u);
  EXPECT_GE(rig.dram.stats().writes, 1u);
}

TEST(HierarchyTest, AccessRangeTouchesEveryLine) {
  HierRig rig;
  bool done = false;
  rig.hier.AccessRange(0x100, 1000, false, [&] { done = true; });
  rig.engine.Run();
  EXPECT_TRUE(done);
  // [0x100, 0x4E8) spans lines 0x100..0x4C0 -> 16 lines.
  EXPECT_EQ(rig.hier.stats().loads, 16u);
}

TEST(HierarchyTest, AccessRangeZeroBytesCompletesImmediately) {
  HierRig rig;
  bool done = false;
  rig.hier.AccessRange(0x100, 0, false, [&] { done = true; });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.hier.stats().loads, 0u);
}

TEST(HierarchyTest, InvalidateDropsLineEverywhere) {
  HierRig rig;
  rig.hier.Access(0x2000, true, nullptr);
  rig.engine.Run();
  bool was_dirty = false;
  EXPECT_TRUE(rig.hier.InvalidateLine(0x2000, &was_dirty));
  EXPECT_TRUE(was_dirty);
  EXPECT_FALSE(rig.hier.LinePresent(0x2000));
  EXPECT_FALSE(rig.hier.InvalidateLine(0x2000));
}

TEST(HierarchyTest, FlushWritesDirtyLineBack) {
  HierRig rig;
  rig.hier.Access(0x3000, true, nullptr);
  rig.engine.Run();
  const auto writes_before = rig.dram.stats().writes;
  bool flushed = false;
  rig.hier.FlushLine(0x3000, [&] { flushed = true; });
  rig.engine.Run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(rig.dram.stats().writes, writes_before + 1);
  // Line stays resident but clean: flushing twice writes nothing new.
  EXPECT_TRUE(rig.hier.LinePresent(0x3000));
  rig.hier.FlushLine(0x3000, nullptr);
  rig.engine.Run();
  EXPECT_EQ(rig.dram.stats().writes, writes_before + 1);
}

TEST(HierarchyTest, MshrLimitBoundsConcurrentMisses) {
  HierRig rig;
  for (int i = 0; i < 12; ++i) {
    rig.hier.Access(static_cast<std::uint64_t>(i) << 20, false, nullptr);
  }
  EXPECT_LE(rig.hier.MshrsInUse(), rig.hier.config().mshrs);
  rig.engine.Run();
  EXPECT_EQ(rig.hier.MshrsInUse(), 0u);
  EXPECT_EQ(rig.hier.stats().local_mem_accesses, 12u);
}

// Regression: misses issued from completion callbacks must not starve
// already-queued misses (FIFO order through the MSHR wait queue).
TEST(HierarchyTest, CompletionIssuedMissesDoNotStarveWaiters) {
  HierRig rig;
  // A self-replenishing stream of 8 chains keeps the 4 MSHRs saturated.
  int stream_ops = 0;
  std::function<void(std::uint64_t)> chain = [&](std::uint64_t addr) {
    if (++stream_ops > 400) {
      return;
    }
    rig.hier.Access(addr, false, [&chain, addr] { chain(addr + (1 << 20)); });
  };
  for (int i = 0; i < 8; ++i) {
    chain(static_cast<std::uint64_t>(i) << 28);
  }
  // A single victim access queued behind the storm must complete while the
  // storm is still running.
  bool victim_done = false;
  Tick victim_at = 0;
  rig.engine.Schedule(FromUs(1), [&] {
    rig.hier.Access(0xFFFF0000, false, [&] {
      victim_done = true;
      victim_at = rig.engine.Now();
    });
  });
  rig.engine.Run();
  EXPECT_TRUE(victim_done);
  EXPECT_LT(ToUs(victim_at), 5.0);  // a few MSHR turnarounds, not the whole storm
}

TEST(HierarchyTest, StridePrefetcherFillsAhead) {
  HierarchyConfig cfg = OmegaHostHierarchy();
  cfg.prefetch_enabled = true;
  cfg.prefetch_degree = 2;
  HierRig rig(cfg);

  // Establish a steady 128B stride.
  for (int i = 0; i < 6; ++i) {
    rig.hier.Access(static_cast<std::uint64_t>(i) * 128, false, nullptr);
    rig.engine.Run();
  }
  EXPECT_GT(rig.hier.stats().prefetches_issued, 0u);
  // The next strided access should already be in L2 (a prefetch hit).
  const auto hits_before = rig.hier.stats().prefetch_hits;
  rig.hier.Access(6 * 128, false, nullptr);
  rig.engine.Run();
  EXPECT_GT(rig.hier.stats().prefetch_hits, hits_before);
}

TEST(HierarchyTest, PrefetcherDisabledIssuesNone) {
  HierRig rig;  // default: disabled
  for (int i = 0; i < 10; ++i) {
    rig.hier.Access(static_cast<std::uint64_t>(i) * 128, false, nullptr);
    rig.engine.Run();
  }
  EXPECT_EQ(rig.hier.stats().prefetches_issued, 0u);
}

TEST(HierarchyTest, LatencySummaryTracksAllDemandAccesses) {
  HierRig rig;
  // 4 accesses (== MSHR count) to distinct banks/sets run fully parallel.
  for (int i = 0; i < 4; ++i) {
    rig.hier.Access(static_cast<std::uint64_t>(i) * ((1 << 21) + 192), false, nullptr);
  }
  rig.engine.Run();
  EXPECT_EQ(rig.hier.stats().access_latency_ns.Count(), 4u);
  EXPECT_NEAR(rig.hier.stats().access_latency_ns.Mean(), 111.7, 25.0);
}

}  // namespace
}  // namespace unifab
