// eCollect: schedule construction, algorithm selection, and the collective
// engine end-to-end on a simulated cluster (including mid-collective
// chassis faults).

#include "src/core/collect.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/collect_algo.h"
#include "src/core/runtime.h"
#include "src/topo/faults.h"

namespace unifab {
namespace {

// ------------------------- Schedule shapes -------------------------------

TEST(CollectAlgoTest, RingAllReduceShape) {
  const int n = 4;
  const std::uint64_t bytes = 1000;
  const CollectiveSchedule s = BuildAllReduce(CollectiveAlgorithm::kRing, n, bytes);
  ASSERT_EQ(s.steps.size(), static_cast<std::size_t>(2 * (n - 1)));
  EXPECT_EQ(s.DepthSteps(), 2 * (n - 1));
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    EXPECT_EQ(s.steps[i].transfers.size(), static_cast<std::size_t>(n)) << "round " << i;
    EXPECT_EQ(s.steps[i].reducing, i < static_cast<std::size_t>(n - 1)) << "round " << i;
  }
  // Every round circulates the full buffer once (each member one slice).
  EXPECT_EQ(s.TotalBytes(), 2u * (n - 1) * bytes);
}

TEST(CollectAlgoTest, BinomialBroadcastShape) {
  const std::uint64_t bytes = 4096;
  const CollectiveSchedule s =
      BuildBroadcast(CollectiveAlgorithm::kBinomialTree, 8, /*root=*/2, bytes, {});
  ASSERT_EQ(s.steps.size(), 3u);  // ceil(log2 8)
  EXPECT_EQ(s.steps[0].transfers.size(), 1u);
  EXPECT_EQ(s.steps[1].transfers.size(), 2u);
  EXPECT_EQ(s.steps[2].transfers.size(), 4u);
  EXPECT_EQ(s.DepthSteps(), 3);
  EXPECT_EQ(s.TotalBytes(), 7u * bytes);  // n-1 receivers, full payload each
}

TEST(CollectAlgoTest, BinomialTreeAllReduceMovesTwiceNMinusOnePayloads) {
  const std::uint64_t bytes = 512;
  const CollectiveSchedule s = BuildAllReduce(CollectiveAlgorithm::kBinomialTree, 5, bytes);
  ASSERT_EQ(s.steps.size(), 6u);  // 3 reduce rounds + 3 broadcast rounds
  EXPECT_EQ(s.TotalBytes(), 2u * 4u * bytes);
  EXPECT_TRUE(s.steps[0].reducing);
  EXPECT_FALSE(s.steps[5].reducing);
}

TEST(CollectAlgoTest, ScatterGatherAreSingleLinearSteps) {
  const CollectiveSchedule sc = BuildScatter(6, /*root=*/1, 256);
  ASSERT_EQ(sc.steps.size(), 1u);
  EXPECT_EQ(sc.steps[0].transfers.size(), 5u);  // root keeps its own slice
  EXPECT_EQ(sc.algo, CollectiveAlgorithm::kLinear);
  for (const auto& t : sc.steps[0].transfers) {
    EXPECT_EQ(t.src, 1);
    EXPECT_EQ(t.src_offset, static_cast<std::uint64_t>(t.dst) * 256u);
    EXPECT_EQ(t.dst_offset, 0u);
  }

  const CollectiveSchedule g = BuildGather(6, /*root=*/0, 256);
  ASSERT_EQ(g.steps.size(), 1u);
  EXPECT_EQ(g.steps[0].transfers.size(), 5u);
  for (const auto& t : g.steps[0].transfers) {
    EXPECT_EQ(t.dst, 0);
    EXPECT_EQ(t.dst_offset, static_cast<std::uint64_t>(t.src) * 256u);
  }
}

TEST(CollectAlgoTest, DegenerateGroupsProduceEmptySchedules) {
  EXPECT_TRUE(BuildAllReduce(CollectiveAlgorithm::kRing, 1, 4096).steps.empty());
  EXPECT_TRUE(BuildBroadcast(CollectiveAlgorithm::kRing, 4, 0, 0, {}).steps.empty());
  EXPECT_EQ(BuildAllReduce(CollectiveAlgorithm::kRing, 1, 4096).DepthSteps(), 0);
}

TEST(CollectAlgoTest, RingBroadcastPipelinesChunksAcrossHops) {
  CollectivePlanConfig cfg;
  cfg.chunk_bytes = 1024;
  cfg.pipeline_chunks = 4;
  const CollectiveSchedule s =
      BuildBroadcast(CollectiveAlgorithm::kRing, 4, /*root=*/0, 8192, cfg);
  // 3 hops x 4 chunks, one transfer per (hop, chunk) step.
  ASSERT_EQ(s.steps.size(), 12u);
  EXPECT_EQ(s.TotalBytes(), 3u * 8192u);
  // Pipelined: a chunk only waits for its own previous hop, so the
  // dependency depth is the hop count, not hops * chunks. Same-link
  // serialization between chunks is the fabric model's job.
  EXPECT_EQ(s.DepthSteps(), 3);
}

// ------------------- Data-flow correctness (simulated) -------------------

// Replays a schedule over per-member byte-range "contribution sets" and
// checks the semantic postcondition of the collective. Transfers within a
// step read a snapshot (concurrent rounds must not see same-round writes).
using MemberData = std::map<std::uint64_t, std::set<int>>;  // offset -> contributors

std::vector<MemberData> Replay(const CollectiveSchedule& s, int n,
                               const std::vector<MemberData>& init) {
  std::vector<MemberData> data = init;
  std::vector<bool> done(s.steps.size(), false);
  // Steps' deps always point backwards, so index order is a valid topological
  // execution order.
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    for (int dep : s.steps[i].deps) {
      EXPECT_TRUE(done[static_cast<std::size_t>(dep)]);
    }
    std::vector<std::pair<const StepTransfer*, std::set<int>>> reads;
    for (const auto& t : s.steps[i].transfers) {
      reads.emplace_back(&t, data[static_cast<std::size_t>(t.src)][t.src_offset]);
    }
    for (const auto& [t, src_val] : reads) {
      std::set<int>& dst = data[static_cast<std::size_t>(t->dst)][t->dst_offset];
      if (s.steps[i].reducing) {
        dst.insert(src_val.begin(), src_val.end());
      } else {
        dst = src_val;
      }
    }
    done[i] = true;
  }
  EXPECT_EQ(n, s.num_members);
  return data;
}

TEST(CollectAlgoTest, RingAllReduceReducesEverySliceEverywhere) {
  const int n = 5;
  const std::uint64_t bytes = 5000;  // 5 slices of 1000
  const CollectiveSchedule s = BuildAllReduce(CollectiveAlgorithm::kRing, n, bytes);

  std::set<int> everyone;
  std::vector<MemberData> init(n);
  for (int i = 0; i < n; ++i) {
    everyone.insert(i);
    for (int sl = 0; sl < n; ++sl) {
      init[static_cast<std::size_t>(i)][static_cast<std::uint64_t>(sl) * 1000u] = {i};
    }
  }
  const auto out = Replay(s, n, init);
  for (int i = 0; i < n; ++i) {
    for (int sl = 0; sl < n; ++sl) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)].at(static_cast<std::uint64_t>(sl) * 1000u),
                everyone)
          << "member " << i << " slice " << sl;
    }
  }
}

TEST(CollectAlgoTest, TreeAllReduceReducesFullBufferEverywhere) {
  const int n = 6;
  const CollectiveSchedule s = BuildAllReduce(CollectiveAlgorithm::kBinomialTree, n, 4096);
  std::set<int> everyone;
  std::vector<MemberData> init(n);
  for (int i = 0; i < n; ++i) {
    everyone.insert(i);
    init[static_cast<std::size_t>(i)][0] = {i};
  }
  const auto out = Replay(s, n, init);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].at(0), everyone) << "member " << i;
  }
}

TEST(CollectAlgoTest, RingAllGatherDeliversEverySliceToEveryMember) {
  const int n = 4;
  const std::uint64_t slice = 512;
  const CollectiveSchedule s = BuildAllGather(CollectiveAlgorithm::kRing, n, slice);
  std::vector<MemberData> init(n);
  for (int i = 0; i < n; ++i) {
    init[static_cast<std::size_t>(i)][static_cast<std::uint64_t>(i) * slice] = {i};
  }
  const auto out = Replay(s, n, init);
  for (int i = 0; i < n; ++i) {
    for (int sl = 0; sl < n; ++sl) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)].at(static_cast<std::uint64_t>(sl) * slice),
                std::set<int>{sl})
          << "member " << i << " slice " << sl;
    }
  }
}

TEST(CollectAlgoTest, BinomialReduceLandsEveryContributionAtRoot) {
  const int n = 7;
  const int root = 3;
  const CollectiveSchedule s = BuildReduce(CollectiveAlgorithm::kBinomialTree, n, root, 1024);
  std::set<int> everyone;
  std::vector<MemberData> init(n);
  for (int i = 0; i < n; ++i) {
    everyone.insert(i);
    init[static_cast<std::size_t>(i)][0] = {i};
  }
  const auto out = Replay(s, n, init);
  EXPECT_EQ(out[static_cast<std::size_t>(root)].at(0), everyone);
}

// ----------------- Hierarchical (pod-aware) AllReduce --------------------

// Byte-granular replay: like Replay but tracking every byte, so schedules
// mixing slice-offset rounds (intra-pod ring) with whole-buffer rounds
// (leader tree) verify end to end.
std::vector<std::vector<std::set<int>>> ReplayBytes(const CollectiveSchedule& s, int n,
                                                    std::uint64_t bytes) {
  std::vector<std::vector<std::set<int>>> data(
      static_cast<std::size_t>(n), std::vector<std::set<int>>(static_cast<std::size_t>(bytes)));
  for (int i = 0; i < n; ++i) {
    for (std::uint64_t b = 0; b < bytes; ++b) {
      data[static_cast<std::size_t>(i)][b] = {i};
    }
  }
  std::vector<bool> done(s.steps.size(), false);
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    for (int dep : s.steps[i].deps) {
      EXPECT_TRUE(done[static_cast<std::size_t>(dep)]);
    }
    std::vector<std::vector<std::set<int>>> reads;
    for (const auto& t : s.steps[i].transfers) {
      std::vector<std::set<int>> r;
      for (std::uint64_t b = 0; b < t.bytes; ++b) {
        r.push_back(data[static_cast<std::size_t>(t.src)][t.src_offset + b]);
      }
      reads.push_back(std::move(r));
    }
    for (std::size_t k = 0; k < s.steps[i].transfers.size(); ++k) {
      const auto& t = s.steps[i].transfers[k];
      for (std::uint64_t b = 0; b < t.bytes; ++b) {
        std::set<int>& dst = data[static_cast<std::size_t>(t.dst)][t.dst_offset + b];
        if (s.steps[i].reducing) {
          dst.insert(reads[k][b].begin(), reads[k][b].end());
        } else {
          dst = reads[k][b];
        }
      }
    }
    done[i] = true;
  }
  return data;
}

TEST(CollectAlgoTest, HierarchicalAllReduceReducesEveryByteEverywhere) {
  const int n = 8;
  const std::uint64_t bytes = 24;
  const std::vector<int> pod_of = {0, 0, 0, 1, 1, 1, 2, 2};  // uneven pods
  const CollectiveSchedule s = BuildHierarchicalAllReduce(n, bytes, pod_of);
  EXPECT_EQ(s.algo, CollectiveAlgorithm::kHierarchical);
  EXPECT_EQ(s.num_members, n);

  std::set<int> everyone;
  for (int i = 0; i < n; ++i) {
    everyone.insert(i);
  }
  const auto out = ReplayBytes(s, n, bytes);
  for (int i = 0; i < n; ++i) {
    for (std::uint64_t b = 0; b < bytes; ++b) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)][b], everyone)
          << "member " << i << " byte " << b;
    }
  }
}

TEST(CollectAlgoTest, HierarchicalDegeneratesToRingInOnePod) {
  const std::vector<int> one_pod = {0, 0, 0, 0};
  const CollectiveSchedule s = BuildHierarchicalAllReduce(4, 4096, one_pod);
  EXPECT_EQ(s.algo, CollectiveAlgorithm::kRing);
  EXPECT_EQ(s.steps.size(), BuildAllReduce(CollectiveAlgorithm::kRing, 4, 4096).steps.size());
}

TEST(CollectAlgoTest, HierarchicalCrossesBridgesOnlyThroughLeaders) {
  const int n = 8;
  const std::vector<int> pod_of = {0, 0, 0, 0, 1, 1, 1, 1};
  const CollectiveSchedule s = BuildHierarchicalAllReduce(n, 64 * 1024, pod_of);
  // Only the two pod leaders (members 0 and 4) may appear in a transfer
  // whose endpoints live in different pods.
  for (const auto& step : s.steps) {
    for (const auto& t : step.transfers) {
      if (pod_of[static_cast<std::size_t>(t.src)] != pod_of[static_cast<std::size_t>(t.dst)]) {
        EXPECT_TRUE((t.src == 0 || t.src == 4) && (t.dst == 0 || t.dst == 4))
            << t.src << " -> " << t.dst;
      }
    }
  }
}

TEST(CollectAlgoTest, TwoTierModelPicksHierarchicalInItsSweetSpot) {
  // 16 pods of 4 over a slow bridge tier, moderate payload: flat ring pays
  // 2(n-1) bridge alphas and flat tree moves the full payload across the
  // bridge every round — the hierarchy wins the crossover.
  CollectivePlanConfig cfg;
  cfg.bridge_alpha_us = 5.0;
  cfg.bridge_mbps = 1250.0;  // 10GbE
  const int n = 64;
  std::vector<int> pod_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pod_of[static_cast<std::size_t>(i)] = i / 4;
  }
  const std::uint64_t bytes = 64 * 1024;
  const double ring = EstimateAllReduceCostUs(CollectiveAlgorithm::kRing, n, bytes, 6, pod_of, cfg);
  const double tree =
      EstimateAllReduceCostUs(CollectiveAlgorithm::kBinomialTree, n, bytes, 6, pod_of, cfg);
  const double hier =
      EstimateAllReduceCostUs(CollectiveAlgorithm::kHierarchical, n, bytes, 6, pod_of, cfg);
  EXPECT_LT(hier, ring);
  EXPECT_LT(hier, tree);
  EXPECT_EQ(ChooseAllReduceAlgorithm(n, bytes, 6, pod_of, cfg),
            CollectiveAlgorithm::kHierarchical);
}

TEST(CollectAlgoTest, ChooserFallsBackToFlatWithoutABridgeTier) {
  const CollectivePlanConfig flat;  // bridge_alpha_us == bridge_mbps == 0
  std::vector<int> pod_of = {0, 0, 1, 1, 2, 2, 3, 3};
  EXPECT_EQ(ChooseAllReduceAlgorithm(8, 256 * 1024, 2, pod_of, flat),
            ChooseAlgorithm(CollectiveOp::kAllReduce, 8, 256 * 1024, 2, flat));

  // Single-pod groups never pick the hierarchy even with a bridge tier.
  CollectivePlanConfig cfg;
  cfg.bridge_alpha_us = 5.0;
  cfg.bridge_mbps = 1250.0;
  std::vector<int> one_pod(8, 0);
  const CollectiveAlgorithm algo = ChooseAllReduceAlgorithm(8, 256 * 1024, 2, one_pod, cfg);
  EXPECT_NE(algo, CollectiveAlgorithm::kHierarchical);
}

// ------------------------- Algorithm selection ---------------------------

TEST(CollectAlgoTest, LargePayloadIntraChassisPrefersRing) {
  const CollectivePlanConfig cfg;
  EXPECT_EQ(ChooseAlgorithm(CollectiveOp::kAllReduce, 8, 256 * 1024, /*span_hops=*/2, cfg),
            CollectiveAlgorithm::kRing);
}

TEST(CollectAlgoTest, SmallPayloadCrossSwitchPrefersTree) {
  const CollectivePlanConfig cfg;
  EXPECT_EQ(ChooseAlgorithm(CollectiveOp::kAllReduce, 8, 4 * 1024, /*span_hops=*/4, cfg),
            CollectiveAlgorithm::kBinomialTree);
}

TEST(CollectAlgoTest, ScatterGatherAlwaysLinear) {
  EXPECT_EQ(ChooseAlgorithm(CollectiveOp::kScatter, 16, 1 << 20, 2, {}),
            CollectiveAlgorithm::kLinear);
  EXPECT_EQ(ChooseAlgorithm(CollectiveOp::kGather, 16, 64, 6, {}),
            CollectiveAlgorithm::kLinear);
}

TEST(CollectAlgoTest, SelectionMatchesCostModel) {
  const CollectivePlanConfig cfg;
  for (const std::uint64_t bytes : {1024ull, 32768ull, 1048576ull}) {
    for (const int span : {2, 4, 6}) {
      const double ring =
          EstimateCostUs(CollectiveOp::kAllReduce, CollectiveAlgorithm::kRing, 8, bytes, span, cfg);
      const double tree = EstimateCostUs(CollectiveOp::kAllReduce,
                                         CollectiveAlgorithm::kBinomialTree, 8, bytes, span, cfg);
      const CollectiveAlgorithm want =
          ring < tree ? CollectiveAlgorithm::kRing : CollectiveAlgorithm::kBinomialTree;
      EXPECT_EQ(ChooseAlgorithm(CollectiveOp::kAllReduce, 8, bytes, span, cfg), want);
    }
  }
}

// ------------------------- Future plumbing -------------------------------

TEST(CollectFutureTest, TryFulfillIsExactlyOnce) {
  DistFuture<int> f;
  int fired = 0;
  int seen = 0;
  f.Then([&](const int& v) {
    ++fired;
    seen = v;
  });
  EXPECT_TRUE(f.TryFulfill(7));
  EXPECT_FALSE(f.TryFulfill(9));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(f.Value(), 7);
}

// ------------------------- Engine integration ----------------------------

ClusterConfig CollectCluster(int faas, int switches = 1) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.num_fams = 1;
  cfg.num_faas = faas;
  cfg.num_switches = switches;
  return cfg;
}

class CollectEngineTest : public ::testing::Test {
 protected:
  CollectEngineTest() : cluster_(CollectCluster(4)), runtime_(&cluster_, RuntimeOptions{}) {}

  CollectiveGroup FaaGroup(int n, std::uint64_t base = 1ULL << 20) {
    CollectiveGroup g;
    for (int i = 0; i < n; ++i) {
      g.members.push_back(CollectiveMember{cluster_.faa(i)->id(), base});
    }
    return g;
  }

  void ExpectAuditClean() {
    const auto violations = cluster_.engine().audit().Sweep();
    for (const auto& v : violations) {
      ADD_FAILURE() << v.path << ": " << v.message;
    }
  }

  Cluster cluster_;
  UniFabricRuntime runtime_;
};

TEST_F(CollectEngineTest, SpanOfSameSwitchGroupIsTwoHops) {
  EXPECT_EQ(runtime_.collect()->SpanOf(FaaGroup(4)), 2);
}

TEST_F(CollectEngineTest, AllReduceOverFaasCompletesAndConservesBytes) {
  const std::uint64_t kBytes = 64 * 1024;
  CollectiveFuture f = runtime_.collect()->AllReduce(FaaGroup(4), kBytes);
  cluster_.engine().Run();

  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  EXPECT_EQ(f.Value().status, TransferStatus::kOk);
  // Ring for a large intra-switch payload; every planned byte moved.
  EXPECT_EQ(f.Value().algorithm, CollectiveAlgorithm::kRing);
  EXPECT_EQ(f.Value().bytes, BuildAllReduce(CollectiveAlgorithm::kRing, 4, kBytes).TotalBytes());
  EXPECT_EQ(runtime_.collect()->stats().collectives_completed, 1u);
  EXPECT_EQ(runtime_.collect()->stats().collectives_failed, 0u);
  ExpectAuditClean();
}

TEST_F(CollectEngineTest, MemberTrafficRunsOnMemberUplinksViaPush) {
  runtime_.collect()->AllReduce(FaaGroup(4), 64 * 1024, CollectiveAlgorithm::kRing);
  cluster_.engine().Run();
  // Ring steps are FAA -> FAA: executed by the src member's push-enabled
  // agent, not funneled through the host adapter.
  std::uint64_t pushes = 0;
  std::uint64_t jobs = 0;
  for (int i = 0; i < 4; ++i) {
    pushes += runtime_.faa_agent(i)->stats().pushes_sent;
    jobs += runtime_.faa_agent(i)->stats().jobs_executed;
  }
  EXPECT_GT(pushes, 0u);
  EXPECT_GT(jobs, 0u);
  EXPECT_EQ(runtime_.host_agent(0)->stats().jobs_executed, 0u);
}

TEST_F(CollectEngineTest, AggregateReservationHeldThenReleased) {
  CollectiveFuture f = runtime_.collect()->AllReduce(FaaGroup(4), 256 * 1024);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  // One reservation per distinct destination (all 4 FAAs receive).
  EXPECT_GE(runtime_.arbiter()->stats().reservations, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(runtime_.arbiter()->ReservedOf(cluster_.faa(i)->id()), 0.0) << i;
  }
}

TEST_F(CollectEngineTest, AllSixOperationsComplete) {
  const CollectiveGroup g = FaaGroup(4);
  CollectiveEngine* coll = runtime_.collect();
  std::vector<CollectiveFuture> futures;
  futures.push_back(coll->Broadcast(g, /*root=*/0, 32 * 1024));
  futures.push_back(coll->Scatter(g, /*root=*/0, 8 * 1024));
  futures.push_back(coll->Gather(g, /*root=*/1, 8 * 1024));
  futures.push_back(coll->Reduce(g, /*root=*/2, 32 * 1024));
  futures.push_back(coll->AllGather(g, 8 * 1024));
  futures.push_back(coll->AllReduce(g, 32 * 1024));
  cluster_.engine().Run();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].Ready()) << "op " << i;
    EXPECT_TRUE(futures[i].Value().ok) << "op " << i;
  }
  EXPECT_EQ(coll->stats().collectives_completed, 6u);
  ExpectAuditClean();
}

TEST_F(CollectEngineTest, MixedGroupWithHostAndFamCompletes) {
  CollectiveGroup g;
  g.members.push_back(CollectiveMember{cluster_.host(0)->id(), 1ULL << 20});
  g.members.push_back(CollectiveMember{cluster_.fam(0)->id(), 1ULL << 20});
  g.members.push_back(CollectiveMember{cluster_.faa(0)->id(), 1ULL << 20});
  g.members.push_back(CollectiveMember{cluster_.faa(1)->id(), 1ULL << 20});
  CollectiveFuture f = runtime_.collect()->Gather(g, /*root=*/0, 16 * 1024);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  ExpectAuditClean();
}

TEST_F(CollectEngineTest, DegenerateSingleMemberCollectiveIsImmediatelyOk) {
  CollectiveGroup g;
  g.members.push_back(CollectiveMember{cluster_.faa(0)->id(), 1ULL << 20});
  CollectiveFuture f = runtime_.collect()->AllReduce(g, 4096);
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  EXPECT_EQ(f.Value().bytes, 0u);
}

TEST_F(CollectEngineTest, PushEnabledAgentAcceptsRemoteDestinations) {
  ETransDescriptor desc;
  desc.src.push_back(Segment{cluster_.faa(0)->id(), 0, 4096});
  desc.dst.push_back(Segment{cluster_.faa(1)->id(), 0, 4096});
  EXPECT_TRUE(runtime_.faa_agent(0)->CanExecute(desc));
  // Remote *source* still disqualifies an endpoint agent.
  ETransDescriptor rev;
  rev.src.push_back(Segment{cluster_.faa(1)->id(), 0, 4096});
  rev.dst.push_back(Segment{cluster_.faa(0)->id(), 0, 4096});
  EXPECT_FALSE(runtime_.faa_agent(0)->CanExecute(rev));
  // FAM agents stay push-disabled and chassis-local.
  ETransDescriptor fam;
  fam.src.push_back(Segment{cluster_.fam(0)->id(), 0, 4096});
  fam.dst.push_back(Segment{cluster_.faa(0)->id(), 0, 4096});
  EXPECT_FALSE(runtime_.fam_agent(0)->CanExecute(fam));
}

TEST_F(CollectEngineTest, ChassisFlapMidCollectiveStillCompletesOk) {
  FaultScheduler faults(&cluster_.engine(), &cluster_.fabric());
  faults.RegisterChassis("faa1", cluster_.faa(1),
                         cluster_.fabric().LinkTo(cluster_.faa(1)->id()));
  const FaultPlan plan = FaultPlan::Parse("flap faa1 start=50 period=600 down=200 cycles=2");
  ASSERT_TRUE(plan.ok());
  faults.Schedule(plan);

  const std::uint64_t kBytes = 128 * 1024;
  CollectiveFuture f = runtime_.collect()->AllReduce(FaaGroup(4), kBytes);
  cluster_.engine().Run();

  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  EXPECT_EQ(f.Value().status, TransferStatus::kOk);
  // Byte conservation across retries: exactly the planned bytes credited,
  // never double-counted from a stale attempt.
  EXPECT_EQ(f.Value().bytes,
            BuildAllReduce(f.Value().algorithm, 4, kBytes).TotalBytes());
  EXPECT_GE(faults.stats().faults_injected, 1u);
  ExpectAuditClean();
}

// --------------------- Bounded admission (ROADMAP 4) ----------------------

TEST_F(CollectEngineTest, OverlappingCollectivesOnBusyMembersQueueThenRun) {
  CollectiveEngine* coll = runtime_.collect();
  CollectiveFuture f1 = coll->AllReduce(FaaGroup(4), 64 * 1024);
  CollectiveFuture f2 = coll->AllReduce(FaaGroup(4), 64 * 1024);
  // The second arrives while every member is busy: it must wait, not race.
  EXPECT_EQ(coll->stats().collectives_queued, 1u);
  cluster_.engine().Run();

  ASSERT_TRUE(f1.Ready());
  ASSERT_TRUE(f2.Ready());
  EXPECT_TRUE(f1.Value().ok);
  EXPECT_TRUE(f2.Value().ok);
  // The queued one started strictly after the first finished.
  EXPECT_GT(f2.Value().completed_at, f1.Value().completed_at);
  EXPECT_EQ(coll->stats().collectives_rejected, 0u);
  EXPECT_EQ(coll->stats().admit_wait_us.Count(), 1u);
  EXPECT_GT(coll->stats().admit_wait_us.Max(), 0.0);
  ExpectAuditClean();
}

TEST_F(CollectEngineTest, DisjointGroupsAdmitConcurrentlyWithoutQueueing) {
  CollectiveEngine* coll = runtime_.collect();
  CollectiveGroup a, b;
  a.members.push_back(CollectiveMember{cluster_.faa(0)->id(), 1ULL << 20});
  a.members.push_back(CollectiveMember{cluster_.faa(1)->id(), 1ULL << 20});
  b.members.push_back(CollectiveMember{cluster_.faa(2)->id(), 1ULL << 20});
  b.members.push_back(CollectiveMember{cluster_.faa(3)->id(), 1ULL << 20});
  CollectiveFuture fa = coll->AllReduce(a, 64 * 1024);
  CollectiveFuture fb = coll->AllReduce(b, 64 * 1024);
  EXPECT_EQ(coll->stats().collectives_queued, 0u);
  cluster_.engine().Run();
  ASSERT_TRUE(fa.Ready());
  ASSERT_TRUE(fb.Ready());
  EXPECT_TRUE(fa.Value().ok);
  EXPECT_TRUE(fb.Value().ok);
  ExpectAuditClean();
}

TEST(CollectAdmissionTest, QueueOverflowRejectsWithAbortedNotARace) {
  Cluster cluster(CollectCluster(4));
  RuntimeOptions options;
  options.collect.max_queued_collectives = 1;
  UniFabricRuntime runtime(&cluster, options);
  CollectiveGroup g;
  for (int i = 0; i < 4; ++i) {
    g.members.push_back(CollectiveMember{cluster.faa(i)->id(), 1ULL << 20});
  }
  CollectiveEngine* coll = runtime.collect();
  CollectiveFuture f1 = coll->AllReduce(g, 64 * 1024);  // admitted
  CollectiveFuture f2 = coll->AllReduce(g, 64 * 1024);  // queued
  CollectiveFuture f3 = coll->AllReduce(g, 64 * 1024);  // over the bound

  ASSERT_TRUE(f3.Ready());  // rejected synchronously
  EXPECT_FALSE(f3.Value().ok);
  EXPECT_EQ(f3.Value().status, TransferStatus::kAborted);
  EXPECT_EQ(coll->stats().collectives_rejected, 1u);

  cluster.engine().Run();
  ASSERT_TRUE(f1.Ready());
  ASSERT_TRUE(f2.Ready());
  EXPECT_TRUE(f1.Value().ok);
  EXPECT_TRUE(f2.Value().ok);
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());
}

}  // namespace
}  // namespace unifab
