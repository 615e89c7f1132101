// ShardedEngine: a deterministic parallel discrete-event simulator built
// from N Engine shards, one per fabric domain (a switch island or a chassis
// — see src/topo/cluster.cc for the assignment rule).
//
// Execution model — conservative lookahead, null-message free:
//   * Every component lives on exactly one shard and schedules only on its
//     own shard's clock; cross-domain interactions ride Link boundaries,
//     whose minimum latency L (over all inter-domain links, computed at
//     wiring time) bounds how far one domain can affect another.
//   * Time advances in windows. At each barrier the coordinator computes
//     m = earliest pending local event and g = earliest pending global
//     event, and opens the window [.., window_end] with
//     window_end = min(m + L - 1, g, deadline). Each shard then fires all
//     of its local events with tick <= window_end — in parallel, no locks,
//     because nothing another domain does before window_end can reach it.
//   * Events a shard schedules onto a *different* shard are staged in a
//     per-(src,dst) outbox; a shard also lists the destinations it wrote.
//     At the barrier the written mailboxes are harvested and merged into
//     the destination queue in (tick, source shard, sequence)
//     order — a canonical order independent of how many worker threads ran
//     the window. An entry with tick <= window_end means some component
//     violated the lookahead contract; the run aborts loudly.
//   * Global events (ScheduleGlobal) fire between windows with all shards
//     parked, in (tick, staging shard, sequence) order: routing rebuilds
//     and fault injection mutate the world only at barriers. A barrier
//     stops before a global whose tick is later than some shard's earliest
//     pending local event (one an earlier global scheduled), so the next
//     window fires that event before any clock is pulled past it.
//
// Determinism: the shard partition is fixed by the topology, never by the
// worker-thread count — UNIFAB_SHARDS (or Options::workers) only sets how
// many OS threads execute the N domain queues. Each shard's event stream,
// and therefore its RunDigest, is bit-for-bit identical for any worker
// count; MergedDigest() folds the per-shard digests in shard-index order,
// so the printed [unifab-audit] digest line is too. scripts/check.sh diffs
// the UNIFAB_SHARDS=1 and UNIFAB_SHARDS=4 digests to enforce this.

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace unifab {

class ShardedEngine {
 public:
  struct Options {
    // Worker threads executing shard windows. 0 = read UNIFAB_SHARDS from
    // the environment (default 1). Clamped to [1, number of shards] at run
    // time; 1 runs every shard inline on the calling thread.
    std::uint32_t workers = 0;

    // Conservative lookahead window: no domain can affect another in less
    // than this many ticks. Cluster wiring tightens this to the minimum
    // inter-domain link latency via SetLookahead.
    Tick lookahead = FromNs(10.0);

    // Base seed for the per-shard Rng streams.
    std::uint64_t seed = 0x5EEDED;
  };

  ShardedEngine();
  explicit ShardedEngine(const Options& options);
  ~ShardedEngine();  // reports the merged run digest when auditing was on

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Creates shard N (the constructor already created shard 0, the root).
  // Call during topology setup only, before the first Run. `name` labels
  // error messages; instruments register under sim/engine/shard<k>/.
  Engine& AddShard(const std::string& name);

  // Shard 0: where hosts, shared runtime objects, and anything not pinned
  // to a fabric domain live. Handing &root() to a component gives it the
  // classic single-engine programming model.
  Engine& root() { return *shards_.front(); }
  const Engine& root() const { return *shards_.front(); }

  Engine& shard(std::size_t i) { return *shards_[i]; }
  std::size_t num_shards() const { return shards_.size(); }
  std::uint32_t workers() const { return workers_; }

  // Tightens (or widens) the lookahead window; call after wiring, before
  // running. Clamped to >= 1 tick.
  void SetLookahead(Tick lookahead);
  Tick lookahead() const { return lookahead_; }

  // Group-wide run loops; Engine delegates its public Run/RunUntil/Step
  // here when sharded. Semantics mirror Engine's: RunUntil fires everything
  // with tick <= deadline then parks every shard clock at the deadline; Run
  // drains to global quiescence and aligns every shard clock to the last
  // fired tick.
  std::size_t Run();
  std::size_t RunUntil(Tick deadline);
  std::size_t Step(std::size_t max_events);

  bool Idle() const;
  std::size_t PendingEvents() const;
  std::uint64_t TotalFired() const;

  // Latest shard clock (the group has no single "now" between barriers).
  Tick Now() const;

  // Group-central telemetry and invariants: every shard and every component
  // on every shard registers here.
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  InvariantAuditor& audit() { return auditor_; }
  const InvariantAuditor& audit() const { return auditor_; }

  void SetAuditCadence(std::uint64_t every_n_events);

  // Sweeps the group auditor now (all shards must be parked); aborts on any
  // violation, like Engine::AuditNow.
  void AuditNow();

  // Per-shard digests folded in shard-index order; invariant across worker
  // counts for a fixed topology and workload.
  std::uint64_t MergedDigest() const;

  std::uint64_t windows() const { return windows_; }
  std::uint64_t cross_events() const { return cross_delivered_; }

 private:
  friend class Engine;

  struct GlobalEvent {
    Tick when = 0;
    std::uint32_t src = 0;     // shard that staged it
    std::uint64_t seq = 0;     // src-local staging sequence
    EventCallback fn;
  };

  // Inner loop shared by Run/RunUntil/Step. `deadline` = kTickNever for an
  // unbounded run; `max_events` = 0 for no budget. Returns events fired
  // (local + global).
  std::size_t RunCore(Tick deadline, std::size_t max_events);

  // Fires every shard's local events with tick <= window_end, using the
  // worker pool when it pays. Returns the number fired.
  std::size_t RunWindow(Tick window_end);
  void RunShardsOnWorker(std::uint32_t worker, Tick window_end);

  // Barrier work: moves outbox entries into destination queues in canonical
  // order (aborting on lookahead violations), collects newly staged global
  // events, and runs any deferred audit sweeps.
  void HarvestMailboxes(Tick window_end);
  void CollectGlobals();
  std::size_t FireGlobals(Tick window_end);
  void ServiceAuditRequests();

  Tick MinNextEventTime();

  void EnsurePool(std::uint32_t workers);
  void StopPool();

  Options options_;
  MetricRegistry metrics_;    // first: shards + components register into it
  InvariantAuditor auditor_;
  std::uint32_t workers_ = 1;
  Tick lookahead_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<GlobalEvent> globals_;  // pending, sorted (when, src, seq)
  std::vector<std::string> shard_names_;

  Tick last_window_end_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_delivered_ = 0;
  std::uint64_t globals_fired_ = 0;

  struct MergeEntry {
    Tick when;
    std::uint32_t src;
    std::uint64_t seq;
    EventCallback* fn;
  };
  std::vector<MergeEntry> merge_scratch_;
  std::vector<std::vector<std::uint32_t>> inbound_;  // per dst: sources with mail

  // Worker pool: persistent threads woken once per window. The coordinator
  // (the thread that called Run) doubles as worker 0.
  std::mutex pool_mu_;
  std::condition_variable pool_start_;
  std::condition_variable pool_done_;
  std::vector<std::thread> threads_;
  std::uint64_t pool_epoch_ = 0;
  std::uint32_t pool_pending_ = 0;
  std::uint32_t pool_workers_ = 0;  // thread count the pool was built for
  Tick pool_window_end_ = 0;
  bool pool_stop_ = false;
};

}  // namespace unifab

#endif  // SRC_SIM_SHARDED_ENGINE_H_
