// ShardedEngine: deterministic parallel DES under conservative lookahead.
//
// The contract under test (DESIGN.md §6e): the shard partition is part of
// the topology, the worker-thread count is not — so a multi-worker run must
// reproduce the single-worker run bit-for-bit (merged RunDigest, fired
// counts, cross-shard traffic). Plus the boundary protocols: canonical
// (tick, source shard, sequence) mailbox merges, barrier-ordered global
// events, refused cross-shard cancels, and the late-schedule clamp.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace unifab {
namespace {

constexpr Tick kLookahead = 1000;

// A closed-loop workload over four shards: every shard runs a local event
// chain, every third hop posts a cross-shard event onto the next shard
// (delay >= lookahead, as the component contract requires), and every
// seventh hop stages a global. Pure arithmetic — no wall clock, no rng —
// so two instances are bit-identical by construction.
struct Workload {
  ShardedEngine group;
  // Hops happen on every shard, concurrently when workers > 1; globals fire
  // at barriers with all shards parked, but stay atomic for symmetry.
  std::atomic<std::uint64_t> hops{0};
  std::atomic<std::uint64_t> globals{0};

  explicit Workload(std::uint32_t workers) : group(MakeOptions(workers)) {
    group.AddShard("a");
    group.AddShard("b");
    group.AddShard("c");
    group.SetLookahead(kLookahead);
    group.SetAuditCadence(64);
    for (std::uint32_t s = 0; s < 4; ++s) {
      Seed(s, /*depth=*/0);
    }
  }

  static ShardedEngine::Options MakeOptions(std::uint32_t workers) {
    ShardedEngine::Options options;
    options.workers = workers;
    options.seed = 0xFABu;
    return options;
  }

  void Seed(std::uint32_t s, int depth) {
    group.shard(s).Schedule(10 + 7 * s, [this, s, depth] { Hop(s, depth); });
  }

  void Hop(std::uint32_t s, int depth) {
    ++hops;
    if (depth >= 40) {
      return;
    }
    Engine& self = group.shard(s);
    if (depth % 3 == 2) {
      // Cross-domain: schedule on the neighbor's engine from inside our own
      // event; the engine facade routes this through the outbox mailbox.
      group.shard((s + 1) % 4).Schedule(kLookahead + 13 + s, [this, s, depth] {
        Hop((s + 1) % 4, depth + 1);
      });
    } else {
      self.Schedule(21 + 5 * s, [this, s, depth] { Hop(s, depth + 1); });
    }
    if (depth % 7 == 6) {
      self.ScheduleGlobal(kLookahead, [this] { ++globals; });
    }
  }
};

TEST(ShardedEngineTest, DigestInvariantAcrossWorkerCounts) {
  Workload base(1);
  const std::size_t fired = base.group.Run();
  ASSERT_GT(base.hops.load(), 100u);
  ASSERT_GT(base.group.cross_events(), 0u);
  ASSERT_GT(base.globals.load(), 0u);

  for (std::uint32_t workers : {2u, 4u}) {
    Workload par(workers);
    EXPECT_EQ(par.group.Run(), fired) << workers << " workers";
    EXPECT_EQ(par.group.MergedDigest(), base.group.MergedDigest())
        << workers << " workers";
    EXPECT_EQ(par.hops.load(), base.hops.load());
    EXPECT_EQ(par.globals.load(), base.globals.load());
    EXPECT_EQ(par.group.cross_events(), base.group.cross_events());
    EXPECT_EQ(par.group.TotalFired(), base.group.TotalFired());
  }
}

TEST(ShardedEngineTest, SoloGroupMatchesStandaloneEngine) {
  // A one-shard group must behave exactly like the classic engine — same
  // event ids, same digest — because every deferral path short-circuits.
  auto drive = [](Engine& eng) {
    eng.SetAuditCadence(1);
    for (int i = 0; i < 32; ++i) {
      eng.Schedule(5 + 3 * i, [&eng, i] {
        if (i % 2 == 0) {
          eng.Schedule(11, [] {});
        }
        eng.ScheduleGlobal(7, [] {});
      });
    }
    return eng.Run();
  };

  Engine standalone;
  const std::size_t fired = drive(standalone);

  ShardedEngine solo;
  EXPECT_EQ(drive(solo.root()), fired);
  // The root shard fired the same (tick, id) stream: its raw digest is the
  // standalone digest. (MergedDigest re-folds per-shard digests and counts,
  // so it is only comparable between ShardedEngine instances.)
  EXPECT_EQ(solo.root().digest().value(), standalone.digest().value());
}

TEST(ShardedEngineTest, CrossShardEventsMergeInCanonicalOrder) {
  // Shards 1 and 2 post onto the root at colliding ticks from inside their
  // own windows. The mailbox merge must order by (tick, source shard,
  // staging sequence) regardless of staging interleaving.
  ShardedEngine group;
  group.AddShard("a");
  group.AddShard("b");
  group.SetLookahead(kLookahead);
  Engine& root = group.root();

  std::vector<int> order;
  const Tick t0 = 100;
  const Tick when = t0 + kLookahead + 50;
  // Shard 2 stages first in wall time terms (lower tick event), but shard
  // 1's entries must still land first at the shared tick.
  group.shard(2).ScheduleAt(t0 - 1, [&group, &root, &order, when] {
    root.ScheduleAt(when, [&order] { order.push_back(20); });
    root.ScheduleAt(when, [&order] { order.push_back(21); });
    root.ScheduleAt(when - 1, [&order] { order.push_back(19); });
  });
  group.shard(1).ScheduleAt(t0, [&root, &order, when] {
    root.ScheduleAt(when, [&order] { order.push_back(10); });
    root.ScheduleAt(when, [&order] { order.push_back(11); });
  });

  group.Run();
  EXPECT_EQ(order, (std::vector<int>{19, 10, 11, 20, 21}));
}

TEST(ShardedEngineTest, GlobalEventsFireAtBarrierWithAllShardsParked) {
  ShardedEngine group;
  group.AddShard("a");
  group.AddShard("b");
  group.SetLookahead(kLookahead);

  std::vector<int> order;
  const Tick when = 500;
  // Both shards stage a global for the same tick; staging-shard order must
  // break the tie, and every shard clock must have been pulled up to the
  // global's tick before it runs (the callback may touch any domain).
  group.shard(2).ScheduleAt(10, [&group, &order, when] {
    Engine::CurrentShard()->ScheduleGlobalAt(when, [&group, &order, when] {
      EXPECT_FALSE(Engine::InShardedWindow());
      for (std::size_t s = 0; s < group.num_shards(); ++s) {
        EXPECT_EQ(group.shard(s).Now(), when) << "shard " << s;
      }
      order.push_back(2);
    });
  });
  group.shard(1).ScheduleAt(10, [&order, when] {
    Engine::CurrentShard()->ScheduleGlobalAt(when, [&order] { order.push_back(1); });
  });

  group.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedEngineTest, LaterGlobalDoesNotSkipALocalEventAnEarlierGlobalScheduled) {
  // Two globals staged inside one window fire at the same barrier. The first
  // schedules a delay-0 event on shard "a"; the second must not pull a's
  // clock past that event before it fires.
  ShardedEngine group;
  Engine& a = group.AddShard("a");
  group.SetLookahead(kLookahead);
  std::vector<std::pair<char, Tick>> fired;
  group.root().Schedule(10, [&] {
    group.root().ScheduleGlobal(5, [&] {
      fired.emplace_back('g', a.Now());
      a.Schedule(0, [&] { fired.emplace_back('l', a.Now()); });
    });
    group.root().ScheduleGlobal(100, [&] { fired.emplace_back('G', a.Now()); });
  });
  group.Run();
  const std::vector<std::pair<char, Tick>> want = {{'g', 15}, {'l', 15}, {'G', 110}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(a.late_schedules(), 0u);
}

TEST(ShardedEngineTest, RootRunDrivesTheWholeGroup) {
  // Drivers keep the classic facade: root().RunUntil must fire events living
  // on every shard and park every clock at the deadline.
  ShardedEngine group;
  group.AddShard("a");
  group.SetLookahead(kLookahead);

  // Both events can share one lookahead window, i.e. run concurrently.
  std::atomic<int> fired{0};
  group.shard(1).ScheduleAt(250, [&fired] { ++fired; });
  group.root().ScheduleAt(100, [&fired] { ++fired; });

  group.root().RunUntil(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(group.root().Now(), Tick{1000});
  EXPECT_EQ(group.shard(1).Now(), Tick{1000});
  EXPECT_TRUE(group.Idle());
}

// --- Satellite: ScheduleAt into the past clamps, counts, and audits. ------

TEST(ShardedEngineTest, LateScheduleClampsToNowAndFlagsAuditor) {
  Engine engine;
  Tick fired_at = 0;
  engine.Schedule(1000, [&engine, &fired_at] {
    // A stale callback computing an absolute time from cached state lands
    // behind the clock; the engine must clamp instead of corrupting tick
    // order (and must never fire the event "in the past").
    engine.ScheduleAt(250, [&engine, &fired_at] { fired_at = engine.Now(); });
  });
  engine.Run();

  EXPECT_EQ(fired_at, Tick{1000});
  EXPECT_EQ(engine.late_schedules(), 1u);

  const auto violations = engine.audit().Sweep();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].path, "sim/engine/late_schedules");
}

TEST(ShardedEngineTest, OnTimeSchedulesDoNotTripTheLateCounter) {
  Engine engine;
  engine.Schedule(10, [&engine] { engine.ScheduleAt(engine.Now(), [] {}); });
  engine.Run();
  EXPECT_EQ(engine.late_schedules(), 0u);
  EXPECT_TRUE(engine.audit().Sweep().empty());
}

// --- Satellite: cross-shard Cancel semantics. -----------------------------

TEST(ShardedEngineTest, CrossShardCancelAfterFireReturnsFalseOnce) {
  ShardedEngine group;
  group.AddShard("a");
  group.SetLookahead(kLookahead);
  Engine& a = group.shard(1);

  // Mint an id on shard 1 from a parked context (wiring time).
  bool fired = false;
  const EventId id = a.ScheduleAt(100, [&fired] { fired = true; });
  ASSERT_NE(id, kInvalidEventId);

  // Let it fire, then try to cancel it from an event running on shard 0:
  // cross-shard cancellation is refused (the foreign queue may be running
  // concurrently), and the already-recycled record must stay recycled.
  bool refused = false;
  group.root().ScheduleAt(100 + kLookahead + 1, [&a, &refused, id] {
    refused = !a.Cancel(id);
  });
  group.Run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(refused);

  // Parked-context cancel of the stale id: fired already, so false again.
  EXPECT_FALSE(a.Cancel(id));

  // The record was freed exactly once: the queue's record-conservation
  // invariant (live + free == allocated) still holds, and a new event that
  // reuses the slot is not cancellable through the stale generation tag.
  bool reused_fired = false;
  const EventId reused = a.ScheduleAt(5000, [&reused_fired] { reused_fired = true; });
  ASSERT_NE(reused, kInvalidEventId);
  EXPECT_FALSE(a.Cancel(id));
  EXPECT_TRUE(group.audit().Sweep().empty());
  group.Run();
  EXPECT_TRUE(reused_fired);
  EXPECT_TRUE(group.audit().Sweep().empty());
}

TEST(ShardedEngineTest, SameShardCancelStillWorksInsideAGroup) {
  ShardedEngine group;
  group.AddShard("a");
  bool fired = false;
  Engine& a = group.shard(1);
  const EventId id = a.ScheduleAt(100, [&fired] { fired = true; });
  EXPECT_TRUE(a.Cancel(id));
  group.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(group.audit().Sweep().empty());
}

// --- Lookahead contract violations abort loudly. --------------------------

TEST(ShardedEngineDeathTest, LookaheadViolationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardedEngine group;
        group.AddShard("a");
        group.SetLookahead(kLookahead);
        Engine& root = group.root();
        // Scheduling inside the current window on a foreign shard breaks
        // the conservative-lookahead contract; the harvest must abort.
        group.shard(1).ScheduleAt(100, [&root] { root.ScheduleAt(150, [] {}); });
        group.Run();
      },
      "lookahead violation");
}

}  // namespace
}  // namespace unifab
