// Node-replication data structure tests over the CC-NUMA coherence
// substrate.

#include "src/core/replicated.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/sim/random.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

struct Counter {
  std::int64_t value = 0;
};

struct AddOp {
  std::int64_t delta;
};

// Three hosts + a CC-NUMA home node on one switch.
struct Rig {
  Rig() : fabric(&engine, 41) {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    expander->CreateCoherentWindow(dram->config().capacity_bytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);
    const CoherentConfig cfg = CoherentConfig::CcNuma();
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    for (int i = 0; i < 3; ++i) {
      const std::string n = std::to_string(i);
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + n);
      fabric.Connect(sw, adapter, OmegaLink());
      dispatch[i] = std::make_unique<MessageDispatcher>(adapter);
      port[i] = std::make_unique<CoherentPort>(&engine, cfg, dispatch[i].get(), dir.get(), "p" + n);
    }
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::unique_ptr<MessageDispatcher> dispatch[3];
  std::unique_ptr<CoherentPort> port[3];
};

NodeReplicated<Counter, AddOp>::ApplyFn Apply() {
  return [](Counter& c, const AddOp& op) { c.value += op.delta; };
}

TEST(NodeReplicatedTest, SingleReplicaExecutesAndReads) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  const int r0 = nr.AddReplica(rig.port[0].get());

  nr.Execute(r0, AddOp{5});
  rig.engine.Run();
  std::int64_t got = -1;
  nr.Read(r0, [&](const Counter& c) { got = c.value; });
  rig.engine.Run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(nr.LogSize(), 1u);
}

TEST(NodeReplicatedTest, RemoteWritesBecomeVisibleAfterSync) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  const int r0 = nr.AddReplica(rig.port[0].get());
  const int r1 = nr.AddReplica(rig.port[1].get());

  nr.Execute(r0, AddOp{3});
  nr.Execute(r0, AddOp{4});
  rig.engine.Run();
  // Replica 1 hasn't synced yet.
  EXPECT_EQ(nr.UnsafePeek(r1).value, 0);

  std::int64_t got = -1;
  nr.Read(r1, [&](const Counter& c) { got = c.value; });
  rig.engine.Run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(nr.stats().entries_replayed, 4u);  // 2 at writer + 2 at reader
}

TEST(NodeReplicatedTest, InterleavedWritersConvergeEverywhere) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  int reps[3];
  for (int i = 0; i < 3; ++i) {
    reps[i] = nr.AddReplica(rig.port[static_cast<std::size_t>(i)].get());
  }
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      nr.Execute(reps[i], AddOp{i + 1});
    }
  }
  rig.engine.Run();
  for (int i = 0; i < 3; ++i) {
    std::int64_t got = -1;
    nr.Read(reps[i], [&](const Counter& c) { got = c.value; });
    rig.engine.Run();
    EXPECT_EQ(got, 4 * (1 + 2 + 3)) << "replica " << i;
  }
  EXPECT_EQ(nr.LogSize(), 12u);
}

TEST(NodeReplicatedTest, SyncFetchOnlyWhenRemoteWriterInvalidatesTail) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  const int r0 = nr.AddReplica(rig.port[0].get());
  const int r1 = nr.AddReplica(rig.port[1].get());

  nr.Execute(r0, AddOp{1});
  rig.engine.Run();

  // r1's first read never held the tail: one sync fetch.
  nr.Read(r1, [](const Counter&) {});
  rig.engine.Run();
  EXPECT_EQ(nr.stats().sync_fetches, 1u);

  // Re-reads with no intervening writer keep the tail Shared in r1's port.
  nr.Read(r1, [](const Counter&) {});
  nr.Read(r1, [](const Counter&) {});
  rig.engine.Run();
  EXPECT_EQ(nr.stats().sync_fetches, 1u);

  // A remote append write-invalidates the tail; the next read pays again.
  nr.Execute(r0, AddOp{5});
  rig.engine.Run();
  nr.Read(r1, [](const Counter&) {});
  rig.engine.Run();
  EXPECT_EQ(nr.stats().sync_fetches, 2u);
}

TEST(NodeReplicatedTest, ReadReplaysOnlyMissingEntries) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  const int r0 = nr.AddReplica(rig.port[0].get());
  const int r1 = nr.AddReplica(rig.port[1].get());

  for (int i = 0; i < 4; ++i) {
    nr.Execute(r0, AddOp{1});
  }
  rig.engine.Run();
  const std::uint64_t after_writes = nr.stats().entries_replayed;  // writer self-syncs

  std::int64_t seen = -1;
  nr.Read(r1, [&](const Counter& c) { seen = c.value; });
  rig.engine.Run();
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(nr.stats().entries_replayed, after_writes + 4);

  // Two more ops: the re-sync replays exactly the missing suffix, never the
  // whole log from scratch.
  nr.Execute(r0, AddOp{1});
  nr.Execute(r0, AddOp{1});
  rig.engine.Run();
  const std::uint64_t mid = nr.stats().entries_replayed;
  nr.Read(r1, [&](const Counter& c) { seen = c.value; });
  rig.engine.Run();
  EXPECT_EQ(seen, 6);
  EXPECT_EQ(nr.stats().entries_replayed, mid + 2);
}

TEST(NodeReplicatedTest, ReadMostlyWorkloadHitsLocalReplica) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 128, Apply());
  const int r0 = nr.AddReplica(rig.port[0].get());
  nr.Execute(r0, AddOp{1});
  rig.engine.Run();

  // Repeated reads with no intervening writes: the tail block stays cached,
  // so only the first read pays a fetch.
  Summary lat;
  for (int i = 0; i < 20; ++i) {
    const Tick t0 = rig.engine.Now();
    nr.Read(r0, [&](const Counter&) { lat.Add(ToNs(rig.engine.Now() - t0)); });
    rig.engine.Run();
  }
  EXPECT_LT(lat.Percentile(50), 100.0);  // port-cache hit territory
  EXPECT_EQ(nr.stats().sync_fetches, 0u);  // writer already held the tail
}

TEST(NodeReplicatedTest, ReadsBeatCentralizedBaselineUnderSharing) {
  Rig rig;
  NodeReplicated<Counter, AddOp> nr(&rig.engine, 0x10000, 256, Apply());
  // The centralized structure spans 16 coherence blocks (a realistic 1 KiB
  // object); every read scans it, every remote write invalidates part of it.
  CentralizedShared<Counter, AddOp> central(&rig.engine, 0x80000, Apply(),
                                            /*state_blocks=*/16);
  const int r0 = nr.AddReplica(rig.port[0].get());
  const int r1 = nr.AddReplica(rig.port[1].get());
  central.AddHost(rig.port[0].get());
  const int c1 = central.AddHost(rig.port[1].get());

  // One write from host 0, then many reads from host 1.
  nr.Execute(r0, AddOp{1});
  central.Execute(0, AddOp{1});
  rig.engine.Run();

  for (int i = 0; i < 30; ++i) {
    nr.Read(r1, [](const Counter&) {});
    rig.engine.Run();
    central.Read(c1, [](const Counter&) {});
    rig.engine.Run();
    if (i % 10 == 0) {
      // Periodic writes from host 0 invalidate readers in BOTH schemes.
      nr.Execute(r0, AddOp{1});
      central.Execute(0, AddOp{1});
      rig.engine.Run();
    }
  }
  // NR reads replay at most a couple of compact log entries; centralized
  // reads walk all 16 blocks every time.
  EXPECT_LT(nr.stats().read_latency_ns.Mean(), central.stats().read_latency_ns.Mean());
  // And both agree on the value.
  std::int64_t nr_val = -1;
  nr.Read(r1, [&](const Counter& c) { nr_val = c.value; });
  rig.engine.Run();
  std::int64_t c_val = -2;
  central.Read(c1, [&](const Counter& c) { c_val = c.value; });
  rig.engine.Run();
  EXPECT_EQ(nr_val, c_val);
}

// Replay-race regression: a reader's entry fetch can still be in flight when
// another sync (or the replica's own append) applies that index. The stale
// fetch used to replay from its captured index — applying an entry twice /
// out of order — which the replay-cursor assert now traps; the fixed path
// re-reads the cursor, counts the race, and applies exactly once.
TEST(NodeReplicatedTest, ConcurrentReadsRacingAppendsApplyExactlyOnce) {
  Rig rig;
  // Every op carries a unique delta so each replica's application history is
  // recoverable from its counter sequence.
  struct Seen {
    std::int64_t value = 0;
    std::vector<std::int64_t> order;
  };
  NodeReplicated<Seen, AddOp> nr(&rig.engine, 0x10000, 4096, [](Seen& s, const AddOp& op) {
    s.value += op.delta;
    s.order.push_back(op.delta);
  });
  int reps[3];
  for (int i = 0; i < 3; ++i) {
    reps[i] = nr.AddReplica(rig.port[static_cast<std::size_t>(i)].get());
  }

  Rng rng(271828);
  std::int64_t next_delta = 1;
  std::int64_t issued_sum = 0;
  int issued_ops = 0;
  // Interleave appends and (deliberately overlapping) reads without draining
  // the engine, so several syncs per replica are in flight at once.
  for (int iter = 0; iter < 400; ++iter) {
    const int r = reps[rng.NextBelow(3)];
    if (rng.NextDouble() < 0.4) {
      nr.Execute(r, AddOp{next_delta});
      issued_sum += next_delta;
      ++next_delta;
      ++issued_ops;
    } else {
      nr.Read(r, [](const Seen&) {});
      if (rng.NextDouble() < 0.5) {
        nr.Read(r, [](const Seen&) {});  // back-to-back: two syncs in flight
      }
    }
    if (rng.NextDouble() < 0.25) {
      rig.engine.RunUntil(rig.engine.Now() + FromNs(rng.NextInRange(50, 2000)));
    }
  }
  rig.engine.Run();

  EXPECT_EQ(nr.LogSize(), static_cast<std::uint64_t>(issued_ops));
  // Final sync on every replica, then check exactly-once in-order replay:
  // all application histories must be the identical log-order sequence.
  std::vector<std::int64_t> reference;
  for (int i = 0; i < 3; ++i) {
    Seen got;
    nr.Read(reps[i], [&](const Seen& s) { got = s; });
    rig.engine.Run();
    EXPECT_EQ(nr.Synced(reps[i]), nr.LogSize()) << "replica " << i;
    EXPECT_EQ(got.value, issued_sum) << "replica " << i;
    ASSERT_EQ(got.order.size(), static_cast<std::size_t>(issued_ops)) << "replica " << i;
    if (i == 0) {
      reference = got.order;
    } else {
      EXPECT_EQ(got.order, reference) << "replica " << i << " applied out of order";
    }
  }
  // The workload genuinely raced: stale fetches were detected and skipped
  // rather than re-applied.
  EXPECT_GT(nr.stats().sync_races, 0u);
  EXPECT_EQ(nr.stats().entries_replayed,
            3u * static_cast<std::uint64_t>(issued_ops));
}

}  // namespace
}  // namespace unifab
