// Randomized property tests: drive each stateful subsystem with a random
// operation stream, run to quiescence, and check its structural invariants.
// Failures print the seed, so any counterexample replays deterministically.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/coherent.h"
#include "src/mem/coma.h"
#include "src/mem/dram.h"
#include "src/sim/random.h"
#include "src/sim/scenario.h"
#include "src/sim/sharded_engine.h"
#include "src/topo/faults.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

// ------------------------ coherence protocol fuzz --------------------------

// One fuzz case: a seed, run against CC-NUMA (the unbounded directory) or
// against a deadline-free snoop filter smaller than the working set, so
// back-invalidations and sharer recalls interleave with ordinary traffic.
struct CohFuzzCase {
  std::uint64_t seed;
  bool bounded;
};

// The ctest name is the printed parameter; CC-NUMA cases print the bare seed.
void PrintTo(const CohFuzzCase& c, std::ostream* os) {
  *os << (c.bounded ? "bounded_" : "") << c.seed;
}

struct CohRig {
  CohRig(int hosts, const CoherentConfig& cfg) : fabric(&engine, 71) {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    expander->CreateCoherentWindow(dram->config().capacity_bytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    for (int i = 0; i < hosts; ++i) {
      const std::string n = std::to_string(i);
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + n);
      fabric.Connect(sw, adapter, OmegaLink());
      dispatch.push_back(std::make_unique<MessageDispatcher>(adapter));
      ports.push_back(std::make_unique<CoherentPort>(&engine, cfg, dispatch.back().get(),
                                                     dir.get(), "p" + n));
    }
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::vector<std::unique_ptr<MessageDispatcher>> dispatch;
  std::vector<std::unique_ptr<CoherentPort>> ports;
};

class CcNumaFuzzTest : public ::testing::TestWithParam<CohFuzzCase> {};

TEST_P(CcNumaFuzzTest, QuiescentStateSatisfiesProtocolInvariants) {
  const std::uint64_t seed = GetParam().seed;
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr int kBlocks = 24;
  CoherentConfig cfg = CoherentConfig::CcNuma();
  cfg.port_cache = CacheConfig{4096, 64, 2};  // tiny: lots of evictions
  if (GetParam().bounded) {
    cfg.max_tracked_blocks = 8;  // a third of the blocks
    cfg.max_sharers = 2;         // of 3 hosts
  }
  CohRig rig(3, cfg);
  Rng rng(seed);

  int completions = 0;
  constexpr int kOps = 400;
  for (int i = 0; i < kOps; ++i) {
    const int host = static_cast<int>(rng.NextBelow(3));
    const std::uint64_t block = rng.NextBelow(kBlocks) * 64;
    const bool write = rng.NextBool(0.4);
    // Random submission times interleave transactions heavily.
    rig.engine.Schedule(FromNs(100) * rng.NextBelow(400), [&, host, block, write] {
      if (write) {
        rig.ports[static_cast<std::size_t>(host)]->Write(block, [&](bool ok) {
          completions += ok ? 1 : 0;
        });
      } else {
        rig.ports[static_cast<std::size_t>(host)]->Read(block, [&](bool ok) {
          completions += ok ? 1 : 0;
        });
      }
    });
  }
  rig.engine.Run();
  EXPECT_EQ(completions, kOps);  // nothing wedged, nothing failed
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());  // incl. filter_bounded, sharers_conserved

  // Invariants at quiescence, for every block:
  for (int b = 0; b < kBlocks; ++b) {
    const std::uint64_t block = static_cast<std::uint64_t>(b) * 64;
    int holders = 0;
    int modified_holders = 0;
    for (const auto& port : rig.ports) {
      if (port->HoldsBlock(block)) {
        ++holders;
        if (port->HoldsModified(block)) {
          ++modified_holders;
        }
      }
    }
    const auto state = rig.dir->StateOf(block);
    switch (state) {
      case CoherentDirectory::BlockState::kModified:
        // Exactly one M copy exists, and no S copies next to it.
        EXPECT_EQ(modified_holders, 1) << "block " << b;
        EXPECT_EQ(holders, 1) << "block " << b;
        break;
      case CoherentDirectory::BlockState::kShared:
        EXPECT_EQ(modified_holders, 0) << "block " << b;
        EXPECT_GE(holders, 1) << "block " << b;
        // The directory may conservatively remember more sharers than
        // currently hold the block (silent-ish eviction windows), never
        // fewer.
        EXPECT_GE(rig.dir->SharerCount(block), static_cast<std::size_t>(holders))
            << "block " << b;
        break;
      case CoherentDirectory::BlockState::kUncached:
        EXPECT_EQ(holders, 0) << "block " << b;
        break;
    }
  }
}

std::vector<CohFuzzCase> CohFuzzCases() {
  std::vector<CohFuzzCase> cases;
  for (const bool bounded : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
      cases.push_back(CohFuzzCase{seed, bounded});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcNumaFuzzTest, ::testing::ValuesIn(CohFuzzCases()));

// ------------------------------ COMA fuzz --------------------------------

class ComaFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComaFuzzTest, CopiesNeverVanishAndWritesLeaveOneCopy) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Engine engine;
  ComaConfig cfg;
  cfg.num_nodes = 4;
  cfg.blocks_per_node = 16;
  ComaSystem coma(&engine, cfg);
  Rng rng(seed);

  constexpr int kBlocks = 40;  // total capacity 64 > blocks: injection works
  for (int b = 0; b < kBlocks; ++b) {
    coma.SeedBlock(static_cast<int>(rng.NextBelow(4)), static_cast<std::uint64_t>(b) * 64);
  }

  int completions = 0;
  constexpr int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    const int node = static_cast<int>(rng.NextBelow(4));
    const std::uint64_t block = rng.NextBelow(kBlocks) * 64;
    if (rng.NextBool(0.3)) {
      coma.Write(node, block, [&] { ++completions; });
    } else {
      coma.Read(node, block, [&] { ++completions; });
    }
    engine.Run();  // serialize ops: COMA state transitions are synchronous

    // Invariants after every op.
    ASSERT_GE(coma.CopyCount(block), 1) << "op " << i;
    for (int n = 0; n < 4; ++n) {
      ASSERT_LE(coma.NodeOccupancy(n), cfg.blocks_per_node);
    }
  }
  EXPECT_EQ(completions, kOps);

  // Every seeded block still exists somewhere.
  for (int b = 0; b < kBlocks; ++b) {
    EXPECT_GE(coma.CopyCount(static_cast<std::uint64_t>(b) * 64), 1) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComaFuzzTest, ::testing::Values(2u, 4u, 6u, 10u, 12u));

// ------------------------------ Heap fuzz --------------------------------

class HeapFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapFuzzTest, AccountingStaysConsistentUnderRandomOps) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 1;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);
  RuntimeOptions opts;
  opts.heap_local_bytes = 256 * 1024;  // small: allocation pressure
  opts.heap.migration_enabled = true;
  opts.heap.promote_threshold = 0.4;
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);

  Rng rng(seed);
  std::vector<ObjectId> live;
  const std::uint32_t kSizes[] = {64, 256, 1024, 4096, 65536};

  for (int i = 0; i < 500; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.4 || live.empty()) {
      const ObjectId id = heap->Allocate(kSizes[rng.NextBelow(5)],
                                         rng.NextBool(0.5) ? 0 : 1);
      if (id != kInvalidObject) {
        live.push_back(id);
      }
    } else if (roll < 0.6) {
      const std::size_t idx = rng.NextBelow(live.size());
      heap->Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    } else if (roll < 0.9) {
      heap->Read(live[rng.NextBelow(live.size())], nullptr);
    } else {
      const ObjectId id = live[rng.NextBelow(live.size())];
      const int dst = heap->TierOf(id) == 0 ? 1 : 0;
      heap->Migrate(id, dst, nullptr);
    }
    if (i % 50 == 0) {
      cluster.engine().Run();
      heap->RunEpoch();
    }
  }
  cluster.engine().Run();

  // Invariant 1: live object spans never overlap within a tier.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> spans(
      static_cast<std::size_t>(heap->num_tiers()));
  for (const ObjectId id : live) {
    const ObjectInfo info = heap->Info(id);
    ASSERT_NE(info.id, kInvalidObject);
    spans[static_cast<std::size_t>(info.tier)].emplace_back(info.addr, info.addr + info.size);
  }
  for (auto& tier_spans : spans) {
    std::sort(tier_spans.begin(), tier_spans.end());
    for (std::size_t i = 1; i < tier_spans.size(); ++i) {
      EXPECT_LE(tier_spans[i - 1].second, tier_spans[i].first);
    }
  }

  // Invariant 2: per-tier used bytes >= sum of live size classes there and
  // never exceeds capacity.
  for (int t = 0; t < heap->num_tiers(); ++t) {
    EXPECT_LE(heap->TierUsed(t), heap->Tier(t).capacity);
  }

  // Invariant 3: stats balance.
  EXPECT_EQ(heap->stats().allocations - heap->stats().frees, live.size());
  EXPECT_EQ(heap->live_objects(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzzTest, ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------- Switch-mem translation fuzz -----------------------
//
// Random resolves racing random migration commits against the switch-resident
// memory agent. The protocol contract: every resolved translation is exactly
// one placement the range has ever had (old or new, never a torn mix of
// fields), commits serialized per range always succeed, and at quiescence no
// invalidation is in flight and every cached entry matches the agent's
// authoritative map.

class SwitchMemChurnFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchMemChurnFuzzTest, ResolveSeesOldOrNewTranslationNeverTorn) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 2;
  ccfg.num_faas = 0;
  ccfg.seed = seed;
  Cluster cluster(ccfg);
  RuntimeOptions opts;
  opts.heap.migration_enabled = false;
  opts.switch_mem = true;
  UniFabricRuntime runtime(&cluster, opts);
  SwitchMemClient* client = runtime.switch_mem_client(0);
  Rng rng(seed * 31 + 3);

  // A handful of ranges, each with its full placement history: every version
  // ever committed, recorded at commit-issue time (the agent applies commits
  // before acking, so a resolve may legally see the new version early).
  struct RangeState {
    Translation current;
    std::vector<Translation> history;
    bool commit_in_flight = false;
    bool released = false;
  };
  constexpr std::uint64_t kBase = 1ULL << 55;  // clear of the heap's va space
  const PbrId nodes[2] = {cluster.fam(0)->id(), cluster.fam(1)->id()};
  std::vector<RangeState> ranges;
  for (int r = 0; r < 6; ++r) {
    RangeState st;
    st.current.vbase = kBase + static_cast<std::uint64_t>(r) * 4096;
    st.current.bytes = 4096;
    st.current.node = nodes[r % 2];
    st.current.addr = 0x10000u + static_cast<std::uint64_t>(r) * 4096;
    st.current.version = 0;
    client->RegisterRange(st.current.vbase, st.current.bytes, st.current.node,
                          st.current.addr);
    st.history.push_back(st.current);
    ranges.push_back(st);
  }

  int resolves_ok = 0;
  int commits_ok = 0;
  for (int i = 0; i < 400; ++i) {
    auto& st = ranges[rng.NextBelow(ranges.size())];
    if (st.released) {
      continue;
    }
    if (rng.NextBool(0.8)) {
      const std::uint64_t vaddr = st.current.vbase + rng.NextBelow(st.current.bytes);
      client->Resolve(vaddr, [&st, &resolves_ok](const Translation& x, bool ok) {
        if (!ok) {
          return;  // released underneath the resolve: a legal fault
        }
        ++resolves_ok;
        bool known = false;
        for (const Translation& h : st.history) {
          if (x.version == h.version && x.node == h.node && x.addr == h.addr &&
              x.vbase == h.vbase && x.bytes == h.bytes) {
            known = true;
            break;
          }
        }
        EXPECT_TRUE(known) << "torn translation: vbase=" << x.vbase
                           << " version=" << x.version << " addr=" << x.addr;
      });
    } else if (!st.commit_in_flight) {
      // Migrate the range to a fresh placement. Commits are serialized per
      // range (the heap's migrating flag does the same), so each must land.
      Translation next = st.current;
      next.node = nodes[rng.NextBelow(2)];
      next.addr = 0x400000u + static_cast<std::uint64_t>(i) * 4096;
      next.version = st.current.version + 1;
      st.current = next;
      st.history.push_back(next);
      st.commit_in_flight = true;
      client->Commit(next, [&st, &commits_ok](bool ok) {
        EXPECT_TRUE(ok);
        st.commit_in_flight = false;
        ++commits_ok;
      });
    }
    if (i % 40 == 0) {
      cluster.engine().Run();
    }
  }
  cluster.engine().Run();

  EXPECT_GT(resolves_ok, 0);
  EXPECT_GT(commits_ok, 0);
  SwitchMemAgent* agent = runtime.switch_mem_agent();
  EXPECT_EQ(agent->pending_invalidations(), 0u);

  // Post-quiescence: every cached entry equals the authoritative placement.
  client->cache()->ForEach([&](const Translation& cached) {
    const Translation truth = agent->Lookup(cached.vbase);
    EXPECT_EQ(cached.version, truth.version) << "vbase " << cached.vbase;
    EXPECT_EQ(cached.addr, truth.addr);
    EXPECT_EQ(cached.node, truth.node);
  });
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchMemChurnFuzzTest,
                         ::testing::Values(5u, 15u, 25u, 35u, 45u));

// -------------------------- Fabric traffic fuzz --------------------------

class FabricFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricFuzzTest, RandomTrafficAlwaysDrainsAndConserves) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.num_fams = 2;
  cfg.num_faas = 1;
  cfg.num_switches = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed * 7 + 1);

  int submitted = 0;
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    const int host = static_cast<int>(rng.NextBelow(3));
    const int fam = static_cast<int>(rng.NextBelow(2));
    MemRequest req;
    req.type = rng.NextBool(0.5) ? MemRequest::Type::kRead : MemRequest::Type::kWrite;
    req.addr = rng.NextBelow(1 << 28);
    const std::uint32_t sizes[] = {64, 256, 4096, 16384};
    req.bytes = sizes[rng.NextBelow(4)];
    ++submitted;
    cluster.engine().Schedule(FromNs(50) * rng.NextBelow(2000), [&, host, fam, req] {
      cluster.host(host)->fha()->Submit(cluster.fam(fam)->id(), req, [&](bool ok) {
        EXPECT_TRUE(ok);
        ++completed;
      });
    });
  }
  cluster.engine().Run();
  EXPECT_EQ(completed, submitted);

  // Conservation: every adapter finished with empty outstanding tables.
  for (int h = 0; h < 3; ++h) {
    EXPECT_EQ(cluster.host(h)->fha()->Outstanding(), 0u);
    EXPECT_EQ(cluster.host(h)->fha()->QueuedRequests(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzzTest, ::testing::Values(100u, 200u, 300u, 400u));

// -------------------------- Fault campaign fuzz ---------------------------
//
// Random eTrans traffic and random cacheline loads/stores from host cores
// under a random (but always-healing) fault campaign on the same FAMs. The
// recovery contract: every observed future reaches a terminal state (ok or
// aborted, never wedged), every access's `done` fires exactly once (a miss
// the fabric fails retires poisoned), and at quiescence every fabric link
// accounts for each accepted flit as either delivered or dropped-by-failure,
// no MSHR is held and the audit sweep is clean.

class FaultCampaignFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultCampaignFuzzTest, NoWedgedFuturesAndFlitsConserved) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 2;
  cfg.num_faas = 0;
  cfg.num_switches = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  UniFabricRuntime runtime(&cluster, RuntimeOptions{});
  Rng rng(seed * 13 + 5);

  FaultScheduler faults(&cluster.engine(), &cluster.fabric());
  std::string plan;
  for (int f = 0; f < 2; ++f) {
    const std::string name = "fam" + std::to_string(f);
    faults.RegisterLink(name, cluster.fabric().LinkTo(cluster.fam(f)->id()));
    // One or two outages per link; every outage heals well before the
    // traffic's retry budget runs out, and nothing stays down at the end.
    const int cycles = 1 + static_cast<int>(rng.NextBelow(2));
    for (int c = 0; c < cycles; ++c) {
      const std::uint64_t down_at = 50 + c * 1200 + rng.NextBelow(700);
      const std::uint64_t up_at = down_at + 100 + rng.NextBelow(300);
      plan += "fail " + name + " @" + std::to_string(down_at) + "\n";
      plan += "recover " + name + " @" + std::to_string(up_at) + "\n";
    }
  }
  const FaultPlan parsed = FaultPlan::Parse(plan);
  ASSERT_TRUE(parsed.ok());
  faults.Schedule(parsed);

  // Random host->FAM transfers across the campaign window. Only ownership
  // modes whose futures are *supposed* to resolve participate (kExecutor is
  // fire-and-forget toward the initiator by design).
  std::vector<TransferFuture> futures;
  constexpr int kTransfers = 40;
  for (int i = 0; i < kTransfers; ++i) {
    const int host = static_cast<int>(rng.NextBelow(2));
    const int fam = static_cast<int>(rng.NextBelow(2));
    ETransDescriptor d;
    const std::uint64_t bytes = 4096u << rng.NextBelow(4);  // 4K..32K
    d.src = {Segment{cluster.host(host)->id(), rng.NextBelow(1 << 24), bytes}};
    d.dst = {Segment{cluster.fam(fam)->id(), rng.NextBelow(1 << 24), bytes}};
    d.ownership = Ownership::kInitiator;
    d.immediate = rng.NextBool(0.5);
    d.attributes.throttled = rng.NextBool(0.4);
    cluster.engine().Schedule(FromUs(1.0) * rng.NextBelow(2500), [&, host, d] {
      futures.push_back(runtime.etrans()->Submit(runtime.host_agent(host), d));
    });
  }
  // Cacheline traffic from every core onto the same FAMs over the same
  // window; a miss black-holed by an outage ends at the MSHR deadline.
  constexpr int kAccesses = 300;
  std::vector<int> done_count(kAccesses, 0);
  for (int i = 0; i < kAccesses; ++i) {
    HostServer* host = cluster.host(static_cast<int>(rng.NextBelow(2)));
    MemoryHierarchy* core = host->core(static_cast<int>(rng.NextBelow(host->num_cores())));
    const std::uint64_t addr =
        cluster.FamBase(static_cast<int>(rng.NextBelow(2))) + rng.NextBelow(1 << 20);
    const bool is_write = rng.NextBool(0.3);
    cluster.engine().Schedule(FromUs(1.0) * rng.NextBelow(2500), [&, core, addr, is_write, i] {
      core->Access(addr, is_write, [&done_count, i] { ++done_count[i]; });
    });
  }
  cluster.engine().Run();

  for (int i = 0; i < kAccesses; ++i) {
    EXPECT_EQ(done_count[i], 1) << "access " << i;
  }
  std::uint64_t filled = 0;
  std::uint64_t poisoned = 0;
  for (int h = 0; h < 2; ++h) {
    for (int c = 0; c < cluster.host(h)->num_cores(); ++c) {
      const MemoryHierarchy* core = cluster.host(h)->core(c);
      EXPECT_EQ(core->MshrsInUse(), 0u) << "host " << h << " core " << c;
      filled += core->stats().misses_completed;
      poisoned += core->stats().poisoned;
    }
  }
  // Both endings occur: the outages black-hole some misses at every seed.
  EXPECT_GT(filled, 0u);
  EXPECT_GT(poisoned, 0u);
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());

  // No wedged futures: each one is terminal — completed or aborted.
  ASSERT_EQ(futures.size(), static_cast<std::size_t>(kTransfers));
  int resolved_ok = 0;
  for (const TransferFuture& f : futures) {
    ASSERT_TRUE(f.Ready());
    if (f.Value().ok) {
      ++resolved_ok;
      EXPECT_EQ(f.Value().status, TransferStatus::kOk);
    } else {
      EXPECT_EQ(f.Value().status, TransferStatus::kAborted);
    }
  }
  // The campaign always heals, so traffic is never extinguished entirely.
  EXPECT_GT(resolved_ok, 0);

  // Flit conservation at quiescence, per link direction.
  for (const auto& link : cluster.fabric().links()) {
    for (int side = 0; side < 2; ++side) {
      const LinkStats& s = link->stats(side);
      EXPECT_EQ(s.flits_accepted, s.flits_delivered + s.dropped_on_fail)
          << link->name() << " side " << side;
    }
  }

  // Both MSHR pools drained (nothing stranded by the black-hole windows).
  for (int h = 0; h < 2; ++h) {
    EXPECT_EQ(cluster.host(h)->fha()->Outstanding(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCampaignFuzzTest,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u, 57u));

// ------------------ Cross-shard cancel / record-reuse fuzz ----------------
//
// EventIds minted on one shard and cancelled from elsewhere must never
// double-free a pooled event record: a cancel either removes a live event
// exactly once (same shard, parked context) or returns false (already
// fired, already cancelled, stale generation, or refused cross-shard from
// inside a window). At quiescence every event fired XOR was cancelled, and
// record conservation holds on every shard's queue.

class ShardCancelFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardCancelFuzzTest, CancelsNeverDoubleFreeAcrossShards) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);

  constexpr Tick kLookahead = 1000;
  ShardedEngine group;
  group.AddShard("a");
  group.AddShard("b");
  group.SetLookahead(kLookahead);
  group.SetAuditCadence(16);

  struct Tracked {
    EventId id = kInvalidEventId;
    std::uint32_t shard = 0;
    int fires = 0;
    bool cancel_ok = false;
  };
  std::vector<Tracked> tracked;
  tracked.reserve(512);
  // Touched from events on different shards, which run concurrently when
  // worker threads are enabled (UNIFAB_SHARDS > 1).
  std::atomic<std::uint64_t> refused_in_window{0};
  std::atomic<std::uint64_t> cross_hops{0};

  Tick horizon = 0;
  for (int round = 0; round < 25; ++round) {
    // Mint events from the parked context (real ids, random shards).
    const int mint = static_cast<int>(rng.NextInRange(2, 6));
    for (int i = 0; i < mint; ++i) {
      const auto s = static_cast<std::uint32_t>(rng.NextBelow(3));
      const std::size_t idx = tracked.size();
      tracked.push_back(Tracked{kInvalidEventId, s, 0, false});
      tracked[idx].id = group.shard(s).ScheduleAt(
          horizon + rng.NextInRange(1, 2500),
          [&tracked, idx] { ++tracked[idx].fires; });
      ASSERT_NE(tracked[idx].id, kInvalidEventId);
    }
    // Cross-shard chatter keeps real mailbox traffic in the mix.
    if (rng.NextBool(0.7)) {
      const auto s = static_cast<std::uint32_t>(rng.NextBelow(3));
      group.shard(s).ScheduleAt(horizon + rng.NextInRange(1, 500),
                                [&group, &cross_hops, s] {
                                  group.shard((s + 1) % 3).Schedule(
                                      kLookahead + 1, [&cross_hops] { ++cross_hops; });
                                });
    }
    // Cross-shard cancels from inside a running window: always refused.
    if (!tracked.empty() && rng.NextBool(0.6)) {
      const std::size_t idx = rng.NextBelow(tracked.size());
      const auto attacker = (tracked[idx].shard + 1) % 3;
      group.shard(attacker).ScheduleAt(
          horizon + rng.NextInRange(1, 2500),
          [&group, &tracked, &refused_in_window, idx] {
            const Tracked& t = tracked[idx];
            EXPECT_FALSE(group.shard(t.shard).Cancel(t.id));
            ++refused_in_window;
          });
    }
    // Parked-context cancels: succeed iff the event is still live.
    const int cancels = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < cancels && !tracked.empty(); ++i) {
      Tracked& t = tracked[rng.NextBelow(tracked.size())];
      const bool ok = group.shard(t.shard).Cancel(t.id);
      if (ok) {
        EXPECT_EQ(t.fires, 0);
        EXPECT_FALSE(t.cancel_ok) << "record freed twice";
        t.cancel_ok = true;
      } else {
        EXPECT_TRUE(t.fires > 0 || t.cancel_ok);
      }
    }
    horizon += rng.NextInRange(500, 3000);
    group.RunUntil(horizon);
  }
  group.Run();

  for (const Tracked& t : tracked) {
    EXPECT_LE(t.fires, 1);
    EXPECT_NE(t.fires == 1, t.cancel_ok) << "event neither fired nor cancelled";
    // Stale ids stay dead even after their records were recycled.
    EXPECT_FALSE(group.shard(t.shard).Cancel(t.id));
  }
  EXPECT_GT(cross_hops.load(), 0u);
  EXPECT_GT(refused_in_window.load(), 0u);
  EXPECT_TRUE(group.audit().Sweep().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCancelFuzzTest,
                         ::testing::Values(3u, 13u, 23u, 33u, 43u));

// ---------------------- Hostile-input parser mutation ---------------------
//
// Seeded mutations of a valid scenario spec (examples/two_pod.scenario) and a
// valid fault plan (bench_fault_recovery's flap_2ms campaign plus a one-shot
// outage). Neither parser may crash (the suite runs under ASan/UBSan), and
// everything either one accepts must be finite and in range.

constexpr const char* kValidSpec =
    "scenario two_pod_mixed\nseed 7\nhorizon_us 2000\npods 2\n"
    "class name=gold qos=guaranteed tenants=4 arrival=poisson rate_ops_s=4000 bytes=65536 "
    "request_mbps=4000 mix=etrans:3,heap_read:2,collect:1 slo_p99_us=1200\n"
    "class name=bronze qos=best_effort tenants=12 arrival=bursty burst=8 rate_ops_s=1500 "
    "bytes=16384 mix=etrans:2,heap_write:1,faa:1\n";
constexpr const char* kValidPlan =
    "# aggressive campaign\nflap fam0 start=1000 period=2000 down=400 cycles=18\n"
    "recover fam0 @39000; fail fam1 @50.5\nrecover fam1 @60\n";

// Replaces a number with a hostile token, or inserts or deletes bytes.
std::string Mutate(std::string text, Rng& rng) {
  static const char* const kHostile[] = {
      "-1",  "+3", "inf", "-inf", "nan", "1e999", "1e300", "-0", "2.5", "0x1p4", "4294967296",
      "18446744073709551616", "5x", "", "1e-320", "=", "@", ";", "#", "\n"};
  for (std::uint64_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
    const std::size_t pos = rng.NextBelow(text.size() + 1);
    const std::size_t digits = text.find_first_of("0123456789", pos);
    if (rng.NextBool(0.6) && digits != std::string::npos) {
      const std::size_t end = text.find_first_not_of("0123456789.", digits);
      text.replace(digits, end - digits, kHostile[rng.NextBelow(std::size(kHostile))]);
    } else if (rng.NextBool(0.5)) {
      text.insert(pos, 1, static_cast<char>(' ' + rng.NextBelow(95)));
    } else {
      text.erase(pos, 1 + rng.NextBelow(4));
    }
  }
  return text;
}

// Comparisons are false for NaN, so each check also rejects NaN.
void ExpectSpecInRange(const ScenarioSpec& spec) {
  EXPECT_TRUE(spec.horizon_us > 0.0 && spec.horizon_us <= kMaxParsedUs);
  EXPECT_LE(spec.pods, 16u);
  std::uint64_t total = 0;
  for (const TenantClassSpec& c : spec.classes) {
    EXPECT_TRUE(c.tenants >= 1 && c.burst >= 1 && c.bytes >= 1);
    EXPECT_TRUE(std::isfinite(c.rate_ops_per_s) && c.rate_ops_per_s > 0.0);
    EXPECT_TRUE(std::isfinite(c.request_mbps) && c.request_mbps > 0.0);
    EXPECT_TRUE(std::isfinite(c.slo_p99_us) && c.slo_p99_us >= 0.0);
    for (double w : c.mix) {
      EXPECT_TRUE(std::isfinite(w) && w >= 0.0);
    }
    total += c.tenants;
  }
  EXPECT_EQ(total, spec.TotalTenants());
}

TEST(ParserMutationFuzzTest, AcceptedInputIsFiniteAndInRange) {
  ASSERT_TRUE(ScenarioSpec::Parse(kValidSpec).errors.empty());
  ASSERT_TRUE(FaultPlan::Parse(kValidPlan).ok());
  for (std::uint64_t seed : {5u, 15u, 25u, 35u}) {
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      const std::string spec_text = Mutate(kValidSpec, rng);
      const ScenarioSpec spec = ScenarioSpec::Parse(spec_text);
      if (spec.errors.empty()) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " + spec_text);
        ExpectSpecInRange(spec);
      }
      const std::string plan_text = Mutate(kValidPlan, rng);
      for (const FaultEvent& ev : FaultPlan::Parse(plan_text).events) {
        EXPECT_LE(ev.at, FromUs(kMaxParsedUs)) << "seed " << seed << ": " << plan_text;
      }
    }
  }
}

TEST(ParserHostileInputTest, RejectsEachKnownHostileNumber) {
  for (const char* plan : {"fail fam0 @5x", "fail fam0 @-5", "recover fam0 @inf",
                           "fail fam0 @nan", "fail fam0 @1e300",
                           "flap l start=-10 period=100 down=10 cycles=2",
                           "flap l start=nan period=100 down=10 cycles=2",
                           "flap l start=inf period=100 down=10 cycles=2",
                           "flap l start=0 period=100 down=10 cycles=2.5",
                           "flap l start=0 period=100 down=10 cycles=1000001",
                           "flap l start=0 period=1e300 down=10 cycles=3"}) {
    EXPECT_FALSE(FaultPlan::Parse(plan).ok()) << plan;
  }
  const std::string head = "seed 7\nhorizon_us 2000\nclass name=a ";
  for (const std::string& spec :
       {head + "tenants=-1", head + "tenants=4294967296", head + "burst=-1",
        head + "rate_ops_s=inf", head + "request_mbps=inf", head + "mix=etrans:inf",
        std::string("seed -1\nclass name=a"), std::string("horizon_us inf\nclass name=a"),
        std::string("horizon_us nan\nclass name=a"),
        head + "tenants=4294967295\nclass name=b tenants=1"}) {
    EXPECT_FALSE(ScenarioSpec::Parse(spec).errors.empty()) << spec;
  }
}

}  // namespace
}  // namespace unifab
