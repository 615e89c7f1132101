// eCollect: topology-aware collective data movement over eTrans (the
// multi-party face of FCC DP#1's "data movement as a managed service").
//
// Callers name a group of members (FAAs, FAM chassis, hosts — anything with
// a registered migration agent and a buffer base address) and an operation;
// the engine measures the group's switch-hop span through the fabric
// registry, picks ring vs. binomial-tree per the collect_algo cost model,
// reserves aggregate bandwidth toward every destination through the
// FabricArbiter before launching, then drives the schedule's step DAG as
// pipelined eTrans transfers. Member-to-member traffic runs on the members'
// own uplinks (eTrans push protocol), which is what makes ring schedules
// actually bandwidth-optimal instead of serializing on one host adapter.
//
// Fault semantics: each step transfer is idempotent (fixed source/target
// ranges), so a failed transfer — after eTrans itself exhausted its
// per-transfer retries — is re-issued alone under a fresh attempt tag while
// the rest of the DAG keeps moving. A collective reaches exactly one
// terminal status (audited), kOk unless a step exhausts its retry budget.

#ifndef SRC_CORE_COLLECT_H_
#define SRC_CORE_COLLECT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/collect_algo.h"
#include "src/core/etrans.h"
#include "src/core/future.h"
#include "src/fabric/interconnect.h"

namespace unifab {

// One participant: a fabric node plus the base address of its collective
// buffer in that node's memory.
struct CollectiveMember {
  PbrId node = kInvalidPbrId;
  std::uint64_t base = 0;
};

struct CollectiveGroup {
  std::vector<CollectiveMember> members;

  int size() const { return static_cast<int>(members.size()); }
};

// Terminal payload of a CollectiveFuture. Reuses TransferStatus: a
// collective aborts only when a step exhausted its retry budget.
struct CollectiveResult {
  bool ok = true;
  TransferStatus status = TransferStatus::kOk;
  Tick completed_at = 0;
  std::uint64_t bytes = 0;  // total wire bytes the schedule moved
  CollectiveAlgorithm algorithm = CollectiveAlgorithm::kLinear;
  int steps = 0;
};

using CollectiveFuture = DistFuture<CollectiveResult>;

struct CollectiveConfig {
  CollectivePlanConfig plan;

  // eTrans attributes for each step transfer. Transfers run unthrottled:
  // the collective holds the aggregate arbiter lease itself instead of
  // having every step re-negotiate per-transfer leases.
  std::uint32_t transfer_chunk_bytes = 4096;
  int transfer_pipeline_depth = 4;

  // Aggregate bandwidth reserved toward every distinct destination node of
  // the schedule before launch (released at completion, renewed at the
  // lease cadence while running). Denied reservations are counted but do
  // not block the collective — progress beats precision under contention.
  double reserve_mbps = 2000.0;

  // Step-level retry budget on top of eTrans's own per-transfer retries:
  // only the failed transfer is re-issued, under a fresh attempt tag.
  int max_step_retries = 6;
  Tick step_retry_backoff = FromUs(50.0);

  // Bounded admission: a collective arriving while any of its members is
  // busy in an admitted collective waits in a FIFO queue of at most this
  // many entries (admitted when all members free up); beyond that it is
  // rejected with kAborted instead of racing transfers on busy members.
  // Must be >= 1.
  int max_queued_collectives = 8;
};

struct CollectiveStats {
  std::uint64_t collectives_started = 0;
  std::uint64_t collectives_completed = 0;
  std::uint64_t collectives_failed = 0;
  std::uint64_t steps_launched = 0;
  std::uint64_t steps_completed = 0;
  std::uint64_t step_retries = 0;
  std::uint64_t transfers_submitted = 0;
  std::uint64_t transfer_failures = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t reserve_denials = 0;
  std::uint64_t algo_ring = 0;    // schedules launched per chosen algorithm
  std::uint64_t algo_tree = 0;
  std::uint64_t algo_linear = 0;
  std::uint64_t algo_hier = 0;
  std::uint64_t collectives_queued = 0;    // held for busy members, then admitted
  std::uint64_t collectives_rejected = 0;  // admission queue overflow -> kAborted
  Summary collective_latency_us;
  Summary straggler_us;  // last-minus-first transfer completion per step
  Summary admit_wait_us;  // time queued collectives waited for admission

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

class CollectiveEngine {
 public:
  CollectiveEngine(Engine* engine, ETransEngine* etrans, FabricInterconnect* fabric,
                   CollectiveConfig config = {});

  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  // Maps a member node to the migration agent that initiates its outbound
  // transfers (the runtime wires every host/FAM/FAA agent here).
  // `shard_local` marks agents whose control adapter shares this engine's
  // fabric domain (hosts, FAAs). Agents homed in another domain — FAM
  // controllers, which own their own DES shard when sharding is on — are
  // never called into directly: their arbiter callbacks would fire on the
  // remote shard, and a direct ExecuteTransfer would mutate remote adapter
  // state mid-window. Such members initiate through the fallback agent and
  // participate in data movement as delegated eTrans executors only.
  void RegisterMember(PbrId node, MigrationAgent* agent, bool shard_local = true);

  // Used when a member's own agent cannot execute a step transfer (e.g. a
  // FAM controller pushing to a remote node): typically a host agent.
  void SetFallbackAgent(MigrationAgent* agent) { fallback_ = agent; }

  // --- The six collective operations -------------------------------------
  // `bytes` follows the collect_algo convention: the full per-member buffer
  // for Broadcast/Reduce/AllReduce, the per-member slice for the rest.

  CollectiveFuture Broadcast(const CollectiveGroup& group, int root, std::uint64_t bytes,
                             CollectiveAlgorithm algo = CollectiveAlgorithm::kAuto);
  CollectiveFuture Scatter(const CollectiveGroup& group, int root, std::uint64_t slice_bytes);
  CollectiveFuture Gather(const CollectiveGroup& group, int root, std::uint64_t slice_bytes);
  CollectiveFuture Reduce(const CollectiveGroup& group, int root, std::uint64_t bytes,
                          CollectiveAlgorithm algo = CollectiveAlgorithm::kAuto);
  CollectiveFuture AllGather(const CollectiveGroup& group, std::uint64_t slice_bytes,
                             CollectiveAlgorithm algo = CollectiveAlgorithm::kAuto);
  CollectiveFuture AllReduce(const CollectiveGroup& group, std::uint64_t bytes,
                             CollectiveAlgorithm algo = CollectiveAlgorithm::kAuto);

  // Widest member pair in switch-graph edges (2 == same switch); the
  // topology signal ChooseAlgorithm keys on.
  int SpanOf(const CollectiveGroup& group) const;

  const CollectiveStats& stats() const { return stats_; }
  const CollectiveConfig& config() const { return config_; }

 private:
  struct StepState {
    int remaining_deps = 0;
    int transfers_done = 0;
    std::uint64_t bytes_done = 0;
    Tick first_done = 0;
    Tick last_done = 0;
    int retries = 0;
    bool launched = false;
    bool completed = false;
    std::vector<int> attempt;  // per-transfer attempt tag (stale-result guard)
  };

  struct Active {
    std::uint64_t id = 0;
    CollectiveSchedule sched;
    CollectiveGroup group;
    CollectiveFuture future;
    Tick started_at = 0;
    std::vector<StepState> steps;
    std::vector<std::vector<int>> dependents;  // step -> steps it unblocks
    int steps_remaining = 0;
    std::uint64_t bytes_moved = 0;
    bool finished = false;
    // Aggregate bandwidth leases: (resource node, granted mbps).
    std::vector<std::pair<PbrId, double>> leases;
    int reservations_outstanding = 0;
    EventId renew_event = kInvalidEventId;
    bool admitted = false;  // holds busy marks on its members until Finish
    Tick queued_at = 0;
  };

  CollectiveFuture Run(const CollectiveGroup& group, CollectiveSchedule sched);
  void Admit(const std::shared_ptr<Active>& ac);
  bool AnyMemberBusy(const CollectiveGroup& group) const;
  std::vector<int> PodsOf(const CollectiveGroup& group) const;
  void ReserveThenLaunch(const std::shared_ptr<Active>& ac);
  void RenewLeases(const std::shared_ptr<Active>& ac);
  void LaunchReady(const std::shared_ptr<Active>& ac);
  void LaunchStep(const std::shared_ptr<Active>& ac, int step_idx);
  void SubmitTransfer(const std::shared_ptr<Active>& ac, int step_idx, int t_idx, int attempt);
  void OnTransferDone(const std::shared_ptr<Active>& ac, int step_idx, int t_idx, int attempt,
                      const TransferResult& result);
  void CompleteStep(const std::shared_ptr<Active>& ac, int step_idx);
  void Finish(const std::shared_ptr<Active>& ac, bool ok, TransferStatus status);
  MigrationAgent* AgentFor(PbrId node) const;
  ArbiterClient* ReservationClient(const std::shared_ptr<Active>& ac) const;

  Engine* engine_;
  ETransEngine* etrans_;
  FabricInterconnect* fabric_;
  CollectiveConfig config_;
  struct MemberAgent {
    MigrationAgent* agent = nullptr;
    bool shard_local = true;
  };
  std::unordered_map<PbrId, MemberAgent> members_;
  MigrationAgent* fallback_ = nullptr;
  std::uint64_t next_id_ = 1;
  // Admission control: how many admitted unfinished collectives each node
  // participates in, plus the FIFO of collectives waiting for their members.
  std::unordered_map<PbrId, int> busy_;
  std::deque<std::shared_ptr<Active>> admit_queue_;
  // Audit counters: exactly-one terminal status per collective, and
  // bytes-in == bytes-out for every reducing step.
  std::uint64_t started_ = 0;
  std::uint64_t terminal_ = 0;
  std::uint64_t double_terminals_ = 0;
  std::uint64_t reduce_violations_ = 0;
  CollectiveStats stats_;
  MetricGroup metrics_;
  AuditScope audit_;

  friend class AuditTestPeer;
};

}  // namespace unifab

#endif  // SRC_CORE_COLLECT_H_
