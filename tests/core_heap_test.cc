// Unified-heap unit tests: bins and size classes, free/reuse, spill and
// demotion, migration mechanics, policy decisions, and UniPtr semantics.

#include "src/core/heap.h"

#include <gtest/gtest.h>

#include "src/core/runtime.h"
#include "src/core/uniptr.h"

namespace unifab {
namespace {

ClusterConfig OneFamCluster() {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.num_fams = 1;
  cfg.num_faas = 0;
  return cfg;
}

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : cluster_(OneFamCluster()) {
    RuntimeOptions opts;
    opts.heap_local_bytes = 1 << 20;  // small fast tier: 1 MiB
    opts.heap.migration_enabled = true;
    runtime_ = std::make_unique<UniFabricRuntime>(&cluster_, opts);
    heap_ = runtime_->heap(0);
  }

  Cluster cluster_;
  std::unique_ptr<UniFabricRuntime> runtime_;
  UnifiedHeap* heap_;
};

TEST_F(HeapTest, SizeClassRounding) {
  const ObjectId a = heap_->Allocate(1);
  const ObjectId b = heap_->Allocate(65);
  ASSERT_NE(a, kInvalidObject);
  ASSERT_NE(b, kInvalidObject);
  // 1 byte -> 64B class; 65 bytes -> 128B class: addresses 64 and 128 apart
  // respectively from the bump pointer.
  const ObjectId c = heap_->Allocate(1);
  EXPECT_EQ(heap_->Info(c).addr - heap_->Info(a).addr, 64u + 128u);
}

TEST_F(HeapTest, OversizedAllocationFails) {
  EXPECT_EQ(heap_->Allocate(1 << 20), kInvalidObject);  // > largest class (256K)
  EXPECT_EQ(heap_->stats().failed_allocations, 1u);
}

TEST_F(HeapTest, FreeReturnsBlockForReuse) {
  const ObjectId a = heap_->Allocate(4096);
  const std::uint64_t addr = heap_->Info(a).addr;
  heap_->Free(a);
  const ObjectId b = heap_->Allocate(4096);
  EXPECT_EQ(heap_->Info(b).addr, addr);  // same block recycled
  EXPECT_EQ(heap_->stats().frees, 1u);
}

TEST_F(HeapTest, FreeUpdatesTierUsage) {
  const std::uint64_t before = heap_->TierUsed(0);
  const ObjectId a = heap_->Allocate(4096);
  EXPECT_EQ(heap_->TierUsed(0), before + 4096);
  heap_->Free(a);
  EXPECT_EQ(heap_->TierUsed(0), before);
}

TEST_F(HeapTest, TierHintPlacesDirectly) {
  const ObjectId id = heap_->Allocate(4096, 1);
  EXPECT_EQ(heap_->TierOf(id), 1);
  const std::uint64_t addr = heap_->Info(id).addr;
  EXPECT_GE(addr, cluster_.FamBase(0));
}

TEST_F(HeapTest, ExplicitMigrationMovesObjectAndAccounting) {
  const ObjectId id = heap_->Allocate(4096, 1);
  const std::uint64_t fam_used = heap_->TierUsed(1);
  bool ok = false;
  heap_->Migrate(id, 0, [&](bool v) { ok = v; });
  cluster_.engine().Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(heap_->TierOf(id), 0);
  EXPECT_EQ(heap_->TierUsed(1), fam_used - 4096);
  EXPECT_EQ(heap_->stats().promotions, 1u);
  EXPECT_EQ(heap_->stats().bytes_migrated, 4096u);
}

TEST_F(HeapTest, MigrateToSameTierIsRejected) {
  const ObjectId id = heap_->Allocate(4096, 0);
  bool ok = true;
  heap_->Migrate(id, 0, [&](bool v) { ok = v; });
  cluster_.engine().Run();
  EXPECT_FALSE(ok);
}

TEST_F(HeapTest, FreeDuringMigrationIsSafe) {
  const ObjectId id = heap_->Allocate(4096, 1);
  bool result = true;
  heap_->Migrate(id, 0, [&](bool v) { result = v; });
  heap_->Free(id);  // before the copy completes
  cluster_.engine().Run();
  EXPECT_FALSE(result);
  // Both tiers fully released.
  EXPECT_EQ(heap_->TierUsed(0), 0u);
  EXPECT_EQ(heap_->TierUsed(1), 0u);
}

TEST_F(HeapTest, MigrateReturnsStatus) {
  const ObjectId id = heap_->Allocate(4096, 1);
  EXPECT_EQ(heap_->Migrate(999999, 0, nullptr), MigrateResult::kNoSuchObject);
  EXPECT_EQ(heap_->Migrate(id, 1, nullptr), MigrateResult::kSameTier);

  // Two concurrent migrations of the same object: the second is rejected
  // with a busy status (and its callback sees false) instead of silently
  // double-claiming the source block.
  bool first_ok = false;
  bool second_ok = true;
  EXPECT_EQ(heap_->Migrate(id, 0, [&](bool v) { first_ok = v; }), MigrateResult::kStarted);
  EXPECT_EQ(heap_->Migrate(id, 0, [&](bool v) { second_ok = v; }), MigrateResult::kBusy);
  cluster_.engine().Run();
  EXPECT_TRUE(first_ok);
  EXPECT_FALSE(second_ok);

  // Once resolved the object is migratable again.
  EXPECT_EQ(heap_->Migrate(id, 1, nullptr), MigrateResult::kStarted);
  cluster_.engine().Run();
  EXPECT_EQ(heap_->TierOf(id), 1);
}

TEST_F(HeapTest, MigrateIntoFullTierReportsNoSpace) {
  std::vector<ObjectId> fill;
  for (int i = 0; i < 4; ++i) {
    fill.push_back(heap_->Allocate(262144, 0));  // 4 x 256K = the whole 1 MiB
    ASSERT_NE(fill.back(), kInvalidObject);
  }
  const ObjectId id = heap_->Allocate(4096, 1);
  bool cb_ok = true;
  EXPECT_EQ(heap_->Migrate(id, 0, [&](bool v) { cb_ok = v; }), MigrateResult::kNoSpace);
  EXPECT_FALSE(cb_ok);
  EXPECT_EQ(heap_->TierOf(id), 1);
}

TEST_F(HeapTest, UntouchedObjectsDecayEveryEpoch) {
  // Regression: the epoch fold must decay every live object, not only the
  // ones touched that epoch — an idle object left at its old temperature
  // never qualifies for demotion.
  const ObjectId idle = heap_->Allocate(64, 1);
  const ObjectId busy = heap_->Allocate(64, 1);
  for (int i = 0; i < 8; ++i) {
    heap_->Read(idle, nullptr);
  }
  cluster_.engine().Run();
  heap_->RunEpoch();
  double expect = 4.0;  // alpha=0.5 over 8 accesses
  EXPECT_DOUBLE_EQ(heap_->Info(idle).temperature, expect);

  for (int epoch = 0; epoch < 3; ++epoch) {
    heap_->Read(busy, nullptr);  // activity elsewhere; `idle` is never touched
    cluster_.engine().Run();
    heap_->RunEpoch();
    expect *= 0.5;
    EXPECT_DOUBLE_EQ(heap_->Info(idle).temperature, expect);
  }
}

TEST_F(HeapTest, ProfilerSummaryCountsEachLiveObjectOnce) {
  // The per-epoch temperature summary holds exactly one sample per live
  // object: it is rebuilt at every epoch, and a freed object leaves it.
  const ObjectId a = heap_->Allocate(64, 1);
  const ObjectId b = heap_->Allocate(64, 1);
  const ObjectId c = heap_->Allocate(64, 1);
  heap_->Read(a, nullptr);
  heap_->Read(b, nullptr);
  heap_->Read(c, nullptr);
  cluster_.engine().Run();
  heap_->RunEpoch();
  EXPECT_EQ(heap_->epoch_temperature().Count(), 3u);
  EXPECT_DOUBLE_EQ(heap_->epoch_temperature().Mean(), 0.5);

  heap_->RunEpoch();  // no accesses: same population, decayed
  EXPECT_EQ(heap_->epoch_temperature().Count(), 3u);
  EXPECT_DOUBLE_EQ(heap_->epoch_temperature().Mean(), 0.25);

  heap_->Free(c);
  heap_->RunEpoch();
  EXPECT_EQ(heap_->epoch_temperature().Count(), 2u);
}

TEST_F(HeapTest, EpochKeepsOnlyTheColdestCandidates) {
  // More cold objects than one epoch hands the policy: the cap keeps the
  // coldest kMaxEpochCandidates by (temperature, id). The kWarm lowest ids
  // are read once, so they are warmer (yet still cold) and drop out; of the
  // untouched objects the kWarm highest ids lose the tie-break. With no
  // watermark and an ample budget the policy demotes every kept object.
  constexpr std::size_t kWarm = 1000;
  constexpr std::size_t kObjects = kMaxEpochCandidates + 2 * kWarm;
  Cluster cluster(OneFamCluster());
  RuntimeOptions opts;
  opts.heap_local_bytes = kObjects * 64;
  opts.heap.high_watermark = 0.0;
  opts.heap.migration_budget_bytes = kObjects * 64;
  UniFabricRuntime rt(&cluster, opts);
  UnifiedHeap* heap = rt.heap(0);

  std::vector<ObjectId> objs;
  for (std::size_t i = 0; i < kWarm; ++i) {
    objs.push_back(heap->Allocate(64, 0));
    heap->Read(objs.back(), nullptr);
  }
  cluster.engine().Run();
  while (objs.size() < kObjects) {
    objs.push_back(heap->Allocate(64, 0));
  }
  heap->RunEpoch();
  EXPECT_DOUBLE_EQ(heap->Info(objs.front()).temperature, 0.5);
  EXPECT_EQ(heap->stats().hot_candidates, 0u);
  EXPECT_EQ(heap->stats().cold_candidates, kMaxEpochCandidates);
  EXPECT_EQ(heap->stats().demotions, kMaxEpochCandidates);
  std::size_t misplaced = 0;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const bool kept = i >= kWarm && i < kWarm + kMaxEpochCandidates;
    if (heap->TierOf(objs[i]) != (kept ? 1 : 0)) {
      ++misplaced;
    }
  }
  EXPECT_EQ(misplaced, 0u);
}

TEST_F(HeapTest, EpochDecaysTemperature) {
  const ObjectId id = heap_->Allocate(64, 1);
  for (int i = 0; i < 10; ++i) {
    heap_->Read(id, nullptr);
  }
  cluster_.engine().Run();
  heap_->RunEpoch();
  const double t1 = heap_->Info(id).temperature;
  EXPECT_GT(t1, 0.0);
  heap_->RunEpoch();  // no accesses this epoch
  EXPECT_LT(heap_->Info(id).temperature, t1);
}

TEST_F(HeapTest, DemotionKicksInAboveHighWatermark) {
  // Fill tier 0 past the watermark with cold objects plus keep one hot.
  std::vector<ObjectId> cold;
  for (int i = 0; i < 15; ++i) {
    cold.push_back(heap_->Allocate(65536, 0));  // 15 * 64K = 960K of 1 MiB
  }
  const ObjectId hot = heap_->Allocate(4096, 0);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 50; ++i) {
      heap_->Read(hot, nullptr);
    }
    cluster_.engine().Run();
    heap_->RunEpoch();
    cluster_.engine().Run();
  }
  EXPECT_GE(heap_->stats().demotions, 1u);
  EXPECT_EQ(heap_->TierOf(hot), 0);  // the hot object stays
  std::size_t demoted = 0;
  for (const ObjectId id : cold) {
    if (heap_->TierOf(id) == 1) {
      ++demoted;
    }
  }
  EXPECT_GE(demoted, 1u);
}

TEST_F(HeapTest, StaticPolicyNeverMoves) {
  // Static placement (what a type-unconscious allocator over CXL memory
  // does): with migration disabled a hot object stays where it was put.
  Cluster cluster(OneFamCluster());
  RuntimeOptions opts;
  opts.heap_local_bytes = 1 << 20;
  opts.heap.migration_enabled = false;
  UniFabricRuntime rt(&cluster, opts);
  UnifiedHeap* heap = rt.heap(0);
  const ObjectId id = heap->Allocate(64, 1);
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 100; ++i) {
      heap->Read(id, nullptr);
    }
    cluster.engine().Run();
    heap->RunEpoch();
    cluster.engine().Run();
  }
  EXPECT_EQ(heap->TierOf(id), 1);
  EXPECT_EQ(heap->stats().promotions, 0u);
}

TEST_F(HeapTest, MigrationBudgetCapsPerEpochMovement) {
  RuntimeOptions opts;
  opts.heap_local_bytes = 4 << 20;
  opts.heap.migration_budget_bytes = 8192;  // at most 2 x 4K objects/epoch
  opts.heap.promote_threshold = 0.4;
  Cluster cluster(OneFamCluster());
  UniFabricRuntime rt(&cluster, opts);
  UnifiedHeap* heap = rt.heap(0);

  std::vector<ObjectId> objs;
  for (int i = 0; i < 16; ++i) {
    objs.push_back(heap->Allocate(4096, 1));
  }
  for (const ObjectId id : objs) {
    heap->Read(id, nullptr);
  }
  cluster.engine().Run();
  heap->RunEpoch();
  cluster.engine().Run();
  EXPECT_LE(heap->stats().promotions, 2u);
}

// TemperaturePolicy decision-table unit tests (no simulation).
TEST(TemperaturePolicyTest, PromotesHottestFirstWithinBudget) {
  TemperaturePolicy policy;
  HeapConfig cfg;
  cfg.promote_threshold = 1.0;
  cfg.migration_budget_bytes = 128;

  std::vector<MemTier> tiers(2);
  tiers[0].capacity = 1024;
  tiers[1].capacity = 1 << 20;
  std::vector<std::uint64_t> used = {0, 512};

  std::vector<ObjectInfo> objects(3);
  for (int i = 0; i < 3; ++i) {
    objects[static_cast<std::size_t>(i)].id = static_cast<ObjectId>(i + 1);
    objects[static_cast<std::size_t>(i)].size = 64;
    objects[static_cast<std::size_t>(i)].tier = 1;
  }
  objects[0].temperature = 5.0;
  objects[1].temperature = 9.0;
  objects[2].temperature = 2.0;

  const auto moves = policy.Decide(objects, tiers, used, cfg);
  ASSERT_EQ(moves.size(), 2u);  // budget = 2 objects
  EXPECT_EQ(moves[0].object, 2u);  // hottest first
  EXPECT_EQ(moves[1].object, 1u);
  EXPECT_EQ(moves[0].dst_tier, 0);
}

TEST(TemperaturePolicyTest, SkipsFullDestination) {
  TemperaturePolicy policy;
  HeapConfig cfg;
  cfg.promote_threshold = 1.0;

  std::vector<MemTier> tiers(2);
  tiers[0].capacity = 64;  // room for nothing once used
  tiers[1].capacity = 1 << 20;
  std::vector<std::uint64_t> used = {64, 0};

  std::vector<ObjectInfo> objects(1);
  objects[0].id = 1;
  objects[0].size = 64;
  objects[0].tier = 1;
  objects[0].temperature = 10.0;

  EXPECT_TRUE(policy.Decide(objects, tiers, used, cfg).empty());
}

TEST(TemperaturePolicyTest, MigratingObjectsAreLeftAlone) {
  TemperaturePolicy policy;
  HeapConfig cfg;
  cfg.promote_threshold = 1.0;
  std::vector<MemTier> tiers(2);
  tiers[0].capacity = 1 << 20;
  tiers[1].capacity = 1 << 20;
  std::vector<std::uint64_t> used = {0, 0};
  std::vector<ObjectInfo> objects(1);
  objects[0].id = 1;
  objects[0].size = 64;
  objects[0].tier = 1;
  objects[0].temperature = 10.0;
  objects[0].migrating = true;
  EXPECT_TRUE(policy.Decide(objects, tiers, used, cfg).empty());
}

// Property sweep over size classes: allocations land in the right class
// and distinct objects never overlap.
class HeapSizeClassTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapSizeClassTest, AllocationsDoNotOverlap) {
  Cluster cluster(OneFamCluster());
  UniFabricRuntime rt(&cluster, RuntimeOptions{});
  UnifiedHeap* heap = rt.heap(0);
  const std::uint32_t size = GetParam();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (int i = 0; i < 32; ++i) {
    const ObjectId id = heap->Allocate(size);
    ASSERT_NE(id, kInvalidObject);
    const ObjectInfo info = heap->Info(id);
    spans.emplace_back(info.addr, info.addr + size);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].second, spans[i].first) << "overlap at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeapSizeClassTest,
                         ::testing::Values(1u, 64u, 100u, 256u, 1000u, 4096u, 65536u, 262144u));

}  // namespace
}  // namespace unifab
