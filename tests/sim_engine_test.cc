#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"

namespace unifab {
namespace {

TEST(EngineTest, StartsAtTimeZeroAndIdle) {
  Engine e;
  EXPECT_EQ(e.Now(), 0u);
  EXPECT_TRUE(e.Idle());
  EXPECT_EQ(e.PendingEvents(), 0u);
}

TEST(EngineTest, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(FromNs(30), [&] { order.push_back(3); });
  e.Schedule(FromNs(10), [&] { order.push_back(1); });
  e.Schedule(FromNs(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), FromNs(30));
}

TEST(EngineTest, SameTickEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(FromNs(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EngineTest, NestedSchedulingAdvancesTime) {
  Engine e;
  Tick inner_fired_at = 0;
  e.Schedule(FromNs(10), [&] {
    e.Schedule(FromNs(5), [&] { inner_fired_at = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(inner_fired_at, FromNs(15));
}

TEST(EngineTest, RunUntilStopsAtDeadlineAndSetsNow) {
  Engine e;
  int fired = 0;
  e.Schedule(FromNs(10), [&] { ++fired; });
  e.Schedule(FromNs(100), [&] { ++fired; });
  const std::size_t n = e.RunUntil(FromNs(50));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.Now(), FromNs(50));
  e.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RunForIsRelative) {
  Engine e;
  e.Schedule(FromNs(10), [] {});
  e.RunFor(FromNs(20));
  EXPECT_EQ(e.Now(), FromNs(20));
  e.RunFor(FromNs(20));
  EXPECT_EQ(e.Now(), FromNs(40));
}

TEST(EngineTest, StepLimitsEventCount) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.Schedule(FromNs(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(e.Step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.Step(10), 3u);
  EXPECT_EQ(fired, 5);
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine e;
  int fired = 0;
  const EventId id = e.Schedule(FromNs(10), [&] { ++fired; });
  e.Schedule(FromNs(20), [&] { ++fired; });
  EXPECT_TRUE(e.Cancel(id));
  EXPECT_FALSE(e.Cancel(id));  // double-cancel reports failure
  e.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, CancelAfterFireReturnsFalse) {
  Engine e;
  const EventId id = e.Schedule(FromNs(1), [] {});
  e.Run();
  EXPECT_FALSE(e.Cancel(id));
}

TEST(EngineTest, TotalFiredCounts) {
  Engine e;
  for (int i = 0; i < 7; ++i) {
    e.Schedule(FromNs(i), [] {});
  }
  e.Run();
  EXPECT_EQ(e.TotalFired(), 7u);
}

TEST(EventQueueTest, EmptyAfterCancellingEverything) {
  EventQueue q;
  const EventId a = q.Push(5, [] {});
  const EventId b = q.Push(10, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  q.Cancel(b);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PopSkipsCancelledHead) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.Push(5, [&] { fired = 1; });
  q.Push(10, [&] { fired = 2; });
  q.Cancel(a);
  auto [when, id, fn] = q.Pop();
  EXPECT_EQ(when, 10u);
  EXPECT_NE(id, kInvalidEventId);
  fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelReclaimsRecordsEagerly) {
  // Cancelled events (e.g. far-future MSHR timeouts) must return to the
  // pool immediately, not linger until their tick surfaces — the pool
  // invariant AllocatedRecords() - FreeRecords() == Size() holds at rest.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.Push(1'000'000 + static_cast<Tick>(i), [] {}));
  }
  EXPECT_EQ(q.AllocatedRecords() - q.FreeRecords(), q.Size());
  for (const EventId id : ids) {
    EXPECT_TRUE(q.Cancel(id));
    EXPECT_EQ(q.AllocatedRecords() - q.FreeRecords(), q.Size());
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.FreeRecords(), q.AllocatedRecords());
  // Reclaimed records are reused rather than growing the pool.
  const std::size_t allocated = q.AllocatedRecords();
  for (int i = 0; i < 100; ++i) {
    q.Push(static_cast<Tick>(i), [] {});
  }
  EXPECT_EQ(q.AllocatedRecords(), allocated);
}

TEST(EventQueueTest, StaleIdsNeverCancelReusedRecords) {
  // After a record is freed and reused, the old EventId's generation tag no
  // longer matches — cancelling it must not disturb the new occupant.
  EventQueue q;
  const EventId a = q.Push(5, [] {});
  ASSERT_TRUE(q.Cancel(a));
  int fired = 0;
  q.Push(7, [&] { fired = 1; });  // reuses the record slot `a` named
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  auto [when, id, fn] = q.Pop();
  EXPECT_EQ(when, 7u);
  fn();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.Cancel(id));  // popped ids are stale too
}

TEST(EventQueueTest, FifoWithinTickAcrossManyTicks) {
  // Events popping in (when, schedule-order) order regardless of insertion
  // pattern — the determinism contract the calendar layout must preserve.
  EventQueue q;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    for (Tick t : {30u, 10u, 20u}) {
      const int tag = static_cast<int>(t) + round;
      q.Push(t, [&order, tag] { order.push_back(tag); });
    }
  }
  std::vector<int> got;
  while (!q.Empty()) {
    auto [when, id, fn] = q.Pop();
    fn();
    (void)when;
    (void)id;
  }
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 20, 21, 22, 30, 31, 32}));
}

TEST(EventQueueTest, LargeCapturesAndReschedulingChurn) {
  // Callables up to EventCallback::kInlineBytes live in the pooled record;
  // bigger ones spill to the heap but still run and destroy correctly.
  EventQueue q;
  struct Big {
    std::array<std::uint64_t, 32> payload;  // 256B: larger than inline buffer
  };
  auto big = std::make_shared<Big>();
  big->payload[31] = 77;
  std::uint64_t seen = 0;
  q.Push(1, [big, &seen] { seen = big->payload[31]; });
  std::array<char, 96> inline_blob{};
  inline_blob[95] = 5;
  int inline_seen = 0;
  q.Push(2, [inline_blob, &inline_seen] { inline_seen = inline_blob[95]; });
  while (!q.Empty()) {
    auto [when, id, fn] = q.Pop();
    fn();
    (void)when;
    (void)id;
  }
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(inline_seen, 5);
  EXPECT_EQ(big.use_count(), 1);  // the queue released its copy
}

// Reference model of the queue: a map keyed by (tick, push order), plus the
// record pool's slot/generation/free-list arithmetic, so every EventId the
// queue hands out is checked too.
class ReferenceQueue {
 public:
  static constexpr std::uint32_t kChunk = 128;  // records per pool chunk

  EventId Push(Tick when, int tag) {
    if (free_.empty()) {
      const auto base = static_cast<std::uint32_t>(gens_.size());
      gens_.resize(gens_.size() + kChunk, 1);
      for (std::uint32_t i = kChunk; i-- > 0;) {
        free_.push_back(base + i);
      }
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    const EventId id = (static_cast<EventId>(slot) + 1) << 32 | gens_[slot];
    const Key key{when, next_order_++};
    events_[key] = Entry{id, slot, tag};
    keys_[id] = key;
    return id;
  }

  bool Cancel(EventId id) {
    auto it = keys_.find(id);
    if (it == keys_.end()) {
      return false;
    }
    Release(events_.at(it->second).slot);
    events_.erase(it->second);
    keys_.erase(it);
    return true;
  }

  // (when, id, tag) of the earliest event, which is removed.
  std::tuple<Tick, EventId, int> Pop() {
    auto it = events_.begin();
    const auto out = std::make_tuple(it->first.first, it->second.id, it->second.tag);
    Release(it->second.slot);
    keys_.erase(it->second.id);
    events_.erase(it);
    return out;
  }

  // Ids queued at tick `when`, in firing order.
  std::vector<EventId> IdsAt(Tick when) const {
    std::vector<EventId> ids;
    for (auto it = events_.lower_bound(Key{when, 0}); it != events_.end() && it->first.first == when;
         ++it) {
      ids.push_back(it->second.id);
    }
    return ids;
  }

  std::vector<EventId> Ids() const {
    std::vector<EventId> ids;
    for (const auto& [key, entry] : events_) {
      ids.push_back(entry.id);
    }
    return ids;
  }

  Tick NextTime() const { return events_.begin()->first.first; }
  Tick TickOfEvent(std::size_t n) const { return std::next(events_.begin(), n)->first.first; }
  std::size_t Size() const { return events_.size(); }
  std::size_t Allocated() const { return gens_.size(); }
  std::size_t Free() const { return free_.size(); }

 private:
  using Key = std::pair<Tick, std::uint64_t>;
  struct Entry {
    EventId id;
    std::uint32_t slot;
    int tag;
  };

  void Release(std::uint32_t slot) {
    ++gens_[slot];
    free_.push_back(slot);
  }

  std::map<Key, Entry> events_;
  std::map<EventId, Key> keys_;
  std::vector<std::uint32_t> gens_;  // per slot: generation of the next id
  std::vector<std::uint32_t> free_;  // back = next slot handed out
  std::uint64_t next_order_ = 0;
};

TEST(EventQueueTest, MatchesReferenceUnderRandomPushCancelPop) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    EventQueue q;
    ReferenceQueue ref;
    std::vector<EventId> retired;  // fired or cancelled: must stay dead
    int fired_tag = -1;
    int next_tag = 0;
    Tick now = 0;
    auto push = [&](Tick when) {
      const int tag = next_tag++;
      const EventId want = ref.Push(when, tag);
      EventId got;
      if (rng() % 3 == 0) {
        got = q.PushCallback(when, EventCallback([&fired_tag, tag] { fired_tag = tag; }));
      } else {
        got = q.Push(when, [&fired_tag, tag] { fired_tag = tag; });
      }
      ASSERT_EQ(got, want) << "seed " << seed << " tag " << tag;
    };
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t op = rng() % 100;
      if (op < 30) {
        // Near ticks, so pushes to one tick interleave; ticks spread over
        // more values than the recent-tick table has slots, so a tick can
        // get several runs; and a few far ones.
        const std::uint64_t kind = rng() % 10;
        push(now + (kind == 0 ? 5000 + rng() % 50 : kind < 4 ? 1 + rng() % 2048 : rng() % 6));
      } else if (op < 38) {
        const Tick when = now + rng() % 4;  // a burst at one tick
        for (std::uint64_t n = 1 + rng() % 12; n > 0; --n) {
          push(when);
        }
      } else if (op < 58 && ref.Size() > 0) {
        // Cancel the head, middle or tail of the earliest tick, a near tick
        // or the tick of a random queued event.
        const std::uint64_t kind = rng() % 3;
        const Tick when = kind == 0   ? ref.NextTime()
                          : kind == 1 ? now + rng() % 6
                                      : ref.TickOfEvent(rng() % ref.Size());
        const std::vector<EventId> ids = ref.IdsAt(when);
        if (!ids.empty()) {
          const std::size_t pick[] = {0, ids.size() / 2, ids.size() - 1};
          const EventId id = ids[pick[rng() % 3]];
          ASSERT_TRUE(ref.Cancel(id));
          ASSERT_TRUE(q.Cancel(id));
          retired.push_back(id);
        }
      } else if (op < 64 && !retired.empty()) {
        // Fired, cancelled and reused-slot ids never cancel anything.
        const EventId id = retired[rng() % retired.size()];
        ASSERT_FALSE(ref.Cancel(id));
        ASSERT_FALSE(q.Cancel(id));
      } else if (op < 66) {
        ASSERT_FALSE(q.Cancel(kInvalidEventId));
        ASSERT_FALSE(q.Cancel(rng()));
      } else if (op == 66) {
        // A cancel storm: most queued events go at once, so stale heap
        // entries outnumber live ones and the heap is compacted.
        for (const EventId id : ref.Ids()) {
          if (rng() % 4 != 0) {
            ASSERT_TRUE(ref.Cancel(id));
            ASSERT_TRUE(q.Cancel(id));
            retired.push_back(id);
          }
        }
      } else if (ref.Size() > 0) {
        ASSERT_EQ(q.NextTime(), ref.NextTime());
        const auto [want_when, want_id, want_tag] = ref.Pop();
        auto [when, id, fn] = q.Pop();
        ASSERT_EQ(when, want_when);
        ASSERT_EQ(id, want_id);
        fn();
        ASSERT_EQ(fired_tag, want_tag);
        now = when;
        retired.push_back(id);
      }
      ASSERT_EQ(q.Size(), ref.Size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.AllocatedRecords(), ref.Allocated());
      ASSERT_EQ(q.FreeRecords(), ref.Free());
      if (ref.Size() > 0) {
        ASSERT_EQ(q.NextTime(), ref.NextTime());
      }
    }
    while (ref.Size() > 0) {
      const auto [want_when, want_id, want_tag] = ref.Pop();
      auto [when, id, fn] = q.Pop();
      ASSERT_EQ(when, want_when);
      ASSERT_EQ(id, want_id);
      fn();
      ASSERT_EQ(fired_tag, want_tag);
    }
    EXPECT_TRUE(q.Empty());
    EXPECT_EQ(q.FreeRecords(), q.AllocatedRecords());
  }
}

TEST(EventQueueTest, CancelledDeadlinesDoNotAccumulate) {
  // The MSHR pattern: every operation schedules its own distinct far-future
  // deadline and cancels it when the operation completes a short while
  // later. The queue's index must stay proportional to the live events, not
  // to the deadlines cancelled since the earliest of them would have fired.
  EventQueue q;
  constexpr int kInFlight = 4;
  constexpr Tick kDeadline = 250'000;
  std::vector<EventId> deadline(kInFlight);
  std::uint64_t op = 0;
  int done_lane = -1;
  auto start = [&](Tick now, int lane) {
    const Tick latency = 50 + (op * 37) % 100;
    q.Push(now + latency, [&done_lane, lane] { done_lane = lane; });
    deadline[static_cast<std::size_t>(lane)] = q.Push(now + kDeadline + op++, [] {});
  };
  for (int lane = 0; lane < kInFlight; ++lane) {
    start(0, lane);
  }
  for (int completions = 0; completions < 20000; ++completions) {
    auto [when, id, fn] = q.Pop();
    (void)id;
    fn();
    ASSERT_TRUE(q.Cancel(deadline[static_cast<std::size_t>(done_lane)]));
    start(when, done_lane);
    ASSERT_EQ(q.Size(), 2u * kInFlight);
    ASSERT_LE(q.HeapEntries(), 2 * q.Size() + EventQueue::kCompactSlack)
        << "after " << completions << " completions";
  }
}

}  // namespace
}  // namespace unifab
