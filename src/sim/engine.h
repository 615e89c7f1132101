// The discrete-event simulation engine that drives every UniFabric model.
//
// An Engine is single-threaded and deterministic: all hardware components
// (links, switches, caches, accelerators) are passive objects that schedule
// callbacks on one Engine. Running the engine to quiescence advances
// simulated time; wall-clock time never appears anywhere in the models.
//
// Engines come in two flavors:
//   * standalone — the classic one-queue simulator (Engine());
//   * shard — one fabric-domain slice of a ShardedEngine, which owns N such
//     shards and runs them in parallel under a conservative lookahead window
//     (see sharded_engine.h). Components keep the same passive single-Engine
//     programming model either way: a component constructed against a shard
//     sees an ordinary Engine&. Scheduling onto a *different* shard's engine
//     from inside a running event is routed transparently through the
//     caller's outbox mailbox and released at the next window barrier.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace unifab {

class ShardedEngine;

class Engine {
 public:
  Engine();
  ~Engine();  // reports the run digest (stderr) when auditing was enabled

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current simulated time of *this* engine (shard-local in a group).
  Tick Now() const { return now_; }

  // Schedules `fn` to run `delay` ticks from now. Accepts any `void()`
  // callable; small captures are stored inline in the queue's record pool.
  // When called from an event running on a different shard of the same
  // ShardedEngine, "now" means the caller's clock and the event is staged
  // into the caller's cross-shard outbox (returns kInvalidEventId).
  template <typename F>
  EventId Schedule(Tick delay, F&& fn) {
    if (group_ != nullptr) {
      Engine* cur = current_shard_;
      if (cur != nullptr && cur != this) {
        cur->StageCross(shard_index_, cur->now_ + delay, EventCallback(std::forward<F>(fn)));
        return kInvalidEventId;
      }
    }
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at an absolute time. A past `when` is clamped to Now()
  // and counted in the sim/engine/late_schedules metric — a nonzero count is
  // an InvariantAuditor violation (a stale callback tried to corrupt tick
  // ordering), but the clamp keeps release builds from silently firing
  // events behind the clock.
  template <typename F>
  EventId ScheduleAt(Tick when, F&& fn) {
    if (group_ != nullptr) {
      Engine* cur = current_shard_;
      if (cur != nullptr && cur != this) {
        cur->StageCross(shard_index_, when, EventCallback(std::forward<F>(fn)));
        return kInvalidEventId;
      }
    }
    if (when < now_) {
      when = now_;
      ++late_schedules_;
    }
    const EventId id = queue_.Push(when, std::forward<F>(fn));
    if (trace_ != nullptr) {
      trace_->OnSchedule(now_, when, id);
    }
    return id;
  }

  // Schedules a *global* event: in a multi-shard group it fires at a window
  // barrier with every shard parked, so the callback may read or mutate
  // state in any domain (routing-table rebuilds, link fail/recover, fault
  // injection). Globals at the same tick fire in (tick, staging shard,
  // sequence) order, after all shard-local events at that tick. On a
  // standalone engine (or a single-shard group) this is a plain Schedule.
  // Global events have no cancellation handle.
  template <typename F>
  void ScheduleGlobal(Tick delay, F&& fn) {
    if (group_ == nullptr || group_solo_) {
      Schedule(delay, std::forward<F>(fn));
      return;
    }
    Engine* cur = current_shard_ != nullptr ? current_shard_ : this;
    cur->StageGlobal(cur->now_ + delay, EventCallback(std::forward<F>(fn)));
  }

  template <typename F>
  void ScheduleGlobalAt(Tick when, F&& fn) {
    if (group_ == nullptr || group_solo_) {
      ScheduleAt(when, std::forward<F>(fn));
      return;
    }
    Engine* cur = current_shard_ != nullptr ? current_shard_ : this;
    cur->StageGlobal(when, EventCallback(std::forward<F>(fn)));
  }

  // Cancels a previously scheduled event. Safe to call after the event fired
  // (returns false). Cross-shard cancellation from inside a running window
  // is refused (returns false, counted in cross_cancels_refused): the
  // foreign queue may be executing concurrently. Cancel cross-shard events
  // from a parked context (between Run calls or from a global event), or
  // better, cancel only what you scheduled on your own shard.
  bool Cancel(EventId id) {
    if (group_ != nullptr) {
      Engine* cur = current_shard_;
      if (cur != nullptr && cur != this) {
        ++cur->cross_cancels_refused_;
        return false;
      }
    }
    return queue_.Cancel(id);
  }

  // Runs events until the queue drains. Returns the number of events fired.
  // On a shard, drives the whole group (every shard plus pending globals).
  std::size_t Run();

  // Runs events with firing time <= `deadline`, then sets Now() == deadline.
  // Returns the number of events fired. Group-wide on a shard.
  std::size_t RunUntil(Tick deadline);

  // Convenience: RunUntil(Now() + duration).
  std::size_t RunFor(Tick duration) { return RunUntil(now_ + duration); }

  // Fires at most `max_events` events. Returns the number fired (may be less
  // if the queue drains first). On a shard this is window-granular: the
  // group stops at the first barrier where the budget is met or exceeded.
  std::size_t Step(std::size_t max_events);

  bool Idle() const;
  std::size_t PendingEvents() const;
  std::uint64_t TotalFired() const;

  // The central telemetry registry every component of this simulation
  // registers its instruments with. Shards share their group's registry.
  MetricRegistry& metrics();
  const MetricRegistry& metrics() const;

  // The invariant auditor every component registers its conservation checks
  // with (via AuditScope), mirroring the metrics registry.
  InvariantAuditor& audit();
  const InvariantAuditor& audit() const;

  // Order-sensitive digest over (tick, event id) of every fired event while
  // auditing is enabled; identical workloads must produce identical values.
  // Shard digests are per-shard; ShardedEngine::MergedDigest() folds them in
  // shard-index order (worker-thread-count invariant).
  const RunDigest& digest() const { return digest_; }

  // Sweep the auditor every `every_n_events` fired events and fold fired
  // events into the digest. 0 disables both (the default unless the
  // UNIFAB_AUDIT environment variable asked otherwise at construction:
  // unset/"0" = off, "1" = on at the default cadence, ">1" = that cadence).
  // In a multi-shard group the sweep itself is deferred to the next window
  // barrier (it reads every domain's state); digest folding is per-event.
  void SetAuditCadence(std::uint64_t every_n_events);
  std::uint64_t audit_cadence() const { return audit_cadence_; }

  // Runs one sweep now; on any violation prints every component-path
  // message to stderr and aborts (fail fast: the state is already wrong and
  // everything computed from here on would be garbage).
  void AuditNow();

  // Optional per-event sim-time tracing; pass nullptr to disable. An unset
  // sink costs one pointer test per Schedule/fire.
  void SetTraceSink(EventTraceSink* sink) { trace_ = sink; }
  EventTraceSink* trace_sink() const { return trace_; }

  // Deterministic per-engine random stream (per-shard in a group: shard k
  // derives its stream from the group seed and k).
  Rng& rng() { return rng_; }

  // Group introspection. group() is nullptr for a standalone engine.
  ShardedEngine* group() const { return group_; }
  std::uint32_t shard_index() const { return shard_index_; }

  // The shard currently executing an event on this thread, or nullptr when
  // the simulation is parked (or this thread never ran a shard window).
  static Engine* CurrentShard() { return current_shard_; }

  // True when the caller sits inside a running event of a multi-shard group
  // — i.e. other domains may be executing concurrently, and an action that
  // mutates world-visible state (routing rebuild, link fail/recover) must
  // defer itself via ScheduleGlobal instead of running in place.
  static bool InShardedWindow() {
    Engine* cur = current_shard_;
    return cur != nullptr && cur->group_ != nullptr && !cur->group_solo_;
  }

  std::uint64_t late_schedules() const { return late_schedules_; }

 private:
  friend class ShardedEngine;
  friend class AuditTestPeer;

  struct CrossEvent {
    Tick when = 0;
    std::uint64_t seq = 0;
    EventCallback fn;
  };

  // Shard constructor: used by ShardedEngine::AddShard only. Registers this
  // shard's instruments under sim/engine/shard<k>/ in the group registry.
  Engine(ShardedEngine* group, std::uint32_t shard_index, std::uint64_t rng_seed);

  void RegisterEngineInstruments(MetricRegistry& registry, InvariantAuditor& auditor,
                                 const std::string& prefix);

  // Appends an event destined for shard `dst` to this (executing) shard's
  // outbox; harvested and merged into dst's queue at the next barrier. The
  // first entry for `dst` in a window records dst in cross_dsts_, so the
  // barrier visits only the outboxes that were written.
  void StageCross(std::uint32_t dst, Tick when, EventCallback&& fn) {
    std::vector<CrossEvent>& box = outbox_[dst];
    if (box.empty()) {
      cross_dsts_.push_back(dst);
    }
    box.emplace_back(when, cross_seq_++, std::move(fn));
  }

  void StageGlobal(Tick when, EventCallback&& fn) {
    global_staging_.emplace_back(when, global_seq_++, std::move(fn));
  }

  // The pre-group single-queue run loops (also the group's per-shard window
  // body and its single-shard fast paths).
  std::size_t RunLocal();
  std::size_t RunUntilLocal(Tick deadline);
  std::size_t StepLocal(std::size_t max_events);

  // Fires every local event with time <= deadline without padding now_ up to
  // the deadline; marks this engine as the thread's executing shard for the
  // duration. This is one shard's share of a lookahead window.
  std::size_t RunEventsUntilLocal(Tick deadline);

  Tick NextLocalEventTime() { return queue_.Empty() ? kTickNever : queue_.NextTime(); }

  void FireNext();

  MetricRegistry metrics_;  // first member: components register during setup
  InvariantAuditor auditor_;  // likewise registered into during setup
  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t fired_ = 0;
  EventTraceSink* trace_ = nullptr;
  RunDigest digest_;
  std::uint64_t audit_cadence_ = 0;  // 0 = auditing off
  std::uint64_t events_since_audit_ = 0;
  bool audit_enabled_ever_ = false;  // a digest was accumulated; report it
  bool audit_requested_ = false;     // group mode: sweep at the next barrier

  // Sharding state. Standalone engines have group_ == nullptr and never
  // touch the rest (including the thread-local).
  ShardedEngine* group_ = nullptr;
  std::uint32_t shard_index_ = 0;
  bool group_solo_ = false;  // group has exactly one shard: run undeferred
  std::uint64_t late_schedules_ = 0;
  std::uint64_t cross_seq_ = 0;    // outbox entries ever staged by this shard
  std::uint64_t global_seq_ = 0;   // global events ever staged by this shard
  std::uint64_t cross_cancels_refused_ = 0;
  std::vector<std::vector<CrossEvent>> outbox_;  // indexed by destination shard
  std::vector<std::uint32_t> cross_dsts_;        // destinations with a nonempty outbox
  std::vector<CrossEvent> global_staging_;
  Rng rng_{0x9E3779B97F4A7C15ULL};  // reseeded per shard in group mode

  static thread_local Engine* current_shard_;
};

}  // namespace unifab

#endif  // SRC_SIM_ENGINE_H_
