// Elastic transaction engine: data movement as a managed service (FCC DP#1).
//
// eTrans(src_addr_list, dst_addr_list, immediate_bit, attributes, ownership)
// decouples the movement *initiator* from the *executor*:
//   * immediate transfers run synchronously on the initiator (for
//     latency-sensitive, execution-coupled movement);
//   * everything else is delegated to a migration agent in the same memory
//     domain as the data (host agents for host DRAM, FAM-controller agents
//     for chassis DRAM), chosen by the engine;
//   * delegated transfers are paced by bandwidth leases from the central
//     arbiter (remote-memory bandwidth throttling, the control-plane policy
//     the paper names).
//
// Completion handling follows the descriptor's ownership field (distributed
// futures, DP#4).
//
// Failure recovery (FCC DP#3, passive failure domains): every execution
// attempt runs under a per-job deadline scaled from the transfer size and
// its pacing rate. A missed deadline (or an MSHR failed by a link epoch
// change) fails the attempt; the engine re-resolves the route through the
// fabric manager, backs off exponentially, and redrives the job on a fresh
// executor until it succeeds or retries are exhausted. Futures always reach
// a terminal TransferStatus — kOk, or kAborted after the last retry.

#ifndef SRC_CORE_ETRANS_H_
#define SRC_CORE_ETRANS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/arbiter.h"
#include "src/core/future.h"
#include "src/fabric/dispatch.h"
#include "src/mem/dram.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

// One contiguous piece of data on one node.
struct Segment {
  PbrId node = kInvalidPbrId;  // fabric id of the memory's owner (FAM or host)
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
};

struct ETransAttributes {
  std::uint32_t chunk_bytes = 4096;
  int pipeline_depth = 4;       // chunks in flight per transfer
  bool throttled = true;        // ask the arbiter for a bandwidth lease
  double request_mbps = 8000.0; // lease ask when throttled
  Channel channel = Channel::kMem;

  // Multi-tenant identity for arbiter leases: (initiating adapter, tenant)
  // is the flow key, and `qos` picks the arbitration class. The defaults
  // are the single-tenant legacy flow.
  std::uint32_t tenant = 0;
  QosClass qos = QosClass::kBestEffort;

  // Per-attempt deadline = floor + factor * (bytes / pacing rate). The floor
  // absorbs fixed costs (lease RTT, flit latency); the factor leaves slack
  // for congestion before a slow transfer is declared dead.
  Tick deadline_floor = FromUs(200.0);
  double deadline_factor = 8.0;
};

struct ETransDescriptor {
  std::vector<Segment> src;
  std::vector<Segment> dst;  // total dst bytes must equal total src bytes
  bool immediate = false;
  ETransAttributes attributes;
  Ownership ownership = Ownership::kInitiator;
};

// A flattened unit of work executed by one agent.
struct TransferJob {
  std::uint64_t job_id = 0;
  ETransDescriptor desc;
  PbrId reply_to = kInvalidPbrId;  // initiator (for kInitiator ownership)
};

struct AgentStats {
  std::uint64_t jobs_executed = 0;
  std::uint64_t jobs_timed_out = 0;  // attempts killed by the per-job deadline
  std::uint64_t chunks_failed = 0;   // chunk ops failed by the fabric (MSHR death)
  std::uint64_t bytes_moved = 0;
  std::uint64_t throttle_waits = 0;  // chunks delayed by the bandwidth lease
  std::uint64_t lease_denials = 0;
  std::uint64_t pushes_sent = 0;     // remote-write chunks pushed over the fabric
  std::uint64_t pushes_served = 0;   // pushes landed into this agent's local memory
  std::uint64_t push_timeouts = 0;   // pushes whose ack never came back
  Summary job_latency_us;

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Executes transfer jobs near one memory domain. `local_mem`, when given,
// is accessed directly (same-domain DMA); all other segments go through the
// agent's fabric adapter.
class MigrationAgent {
 public:
  MigrationAgent(Engine* engine, MessageDispatcher* dispatcher, DramDevice* local_mem,
                 ArbiterClient* arbiter, std::string name);

  // Runs a job; `done` fires exactly once: when every dst byte is durable,
  // or when the attempt fails (deadline missed / fabric failure).
  void ExecuteTransfer(const TransferJob& job, std::function<void(TransferResult)> done);

  // Whether this agent can touch every segment of `desc`: either the
  // segment is in the agent's own memory domain, or the agent fronts a host
  // adapter that can issue fabric transactions. FAM-controller agents can
  // only execute jobs local to their chassis. Push-enabled endpoint agents
  // additionally accept remote *destinations* (served by the push protocol)
  // as long as every source segment is local.
  bool CanExecute(const ETransDescriptor& desc) const;

  // Opts this agent into the eTrans push protocol: remote destination
  // writes become kTagPut runtime messages carrying the chunk payload to
  // the destination's agent, which lands them in its local memory and acks.
  // This is what lets a collective's member-to-member transfers run on the
  // members' own uplinks instead of funneling through a host adapter.
  // Deliberately NOT enabled for FAM-controller agents: their executor
  // domain stays chassis-local (pinned by tests).
  void EnablePush() { push_enabled_ = true; }
  bool push_enabled() const { return push_enabled_; }

  ArbiterClient* arbiter() const { return arbiter_; }

  // Deadline for one execution attempt of `desc` at `rate_mbps` pacing
  // (<= 0 falls back to the descriptor's requested rate).
  static Tick AttemptDeadline(const ETransDescriptor& desc, double rate_mbps);

  // Bounded exponential backoff before re-asking the arbiter after a lease
  // denial: 5us << retries, clamped so persistent congestion cannot push
  // the wait beyond 100us per round.
  static Tick LeaseBackoff(int retries);

  PbrId fabric_id() const { return dispatcher_->adapter()->id(); }
  const AgentStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  MessageDispatcher* dispatcher() const { return dispatcher_; }

 private:
  friend class ETransEngine;

  struct ActiveJob {
    TransferJob job;
    std::function<void(TransferResult)> done;
    Tick started_at = 0;
    std::uint64_t offset = 0;       // bytes fully issued
    std::uint64_t completed = 0;    // bytes durable
    std::uint64_t total = 0;
    int in_flight = 0;
    double granted_mbps = 0.0;
    Tick next_issue_at = 0;
    bool pump_wakeup_armed = false;  // a throttle wakeup is already scheduled
    Tick pump_wakeup_at = 0;         // when it fires (valid while armed)
    PbrId lease_resource = kInvalidPbrId;
    int lease_retries = 0;
    Tick lease_renew_at = 0;
    bool renew_pending = false;
    bool dead = false;  // attempt failed; late chunk completions are ignored
    EventId watchdog = kInvalidEventId;
  };

  static constexpr int kMaxLeaseRetries = 4;

  void StartJob(std::shared_ptr<ActiveJob> job);
  void ArmWatchdog(const std::shared_ptr<ActiveJob>& job, double rate_mbps);
  void FailJob(const std::shared_ptr<ActiveJob>& job, TransferStatus status);
  void MaybeRenewLease(const std::shared_ptr<ActiveJob>& job);
  void PumpChunks(const std::shared_ptr<ActiveJob>& job);
  void IssueChunk(const std::shared_ptr<ActiveJob>& job, std::uint64_t offset,
                  std::uint32_t bytes);
  void ReadSegment(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                   std::function<void(bool ok)> done);
  void WriteSegment(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                    std::function<void(bool ok)> done);
  // Push protocol (remote destination writes from endpoint agents).
  void PushRemote(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                  std::function<void(bool ok)> done);
  void ServePut(const FabricMessage& msg);          // destination side
  void CompletePut(std::uint64_t put_id, bool ok);  // source side (ack landed)
  // Maps a job-relative offset to (segment, in-segment offset).
  static std::pair<const Segment*, std::uint64_t> Locate(const std::vector<Segment>& segs,
                                                         std::uint64_t offset);

  struct PendingPut {
    std::function<void(bool)> done;
    EventId timeout = kInvalidEventId;
  };

  // A push whose ack hasn't arrived by then is failed (the destination
  // chassis or its uplink died); the owning job's retry machinery redrives.
  static constexpr Tick kPutAckTimeout = FromUs(150.0);

  Engine* engine_;
  MessageDispatcher* dispatcher_;
  DramDevice* local_mem_;
  ArbiterClient* arbiter_;
  std::string name_;
  bool push_enabled_ = false;
  std::uint64_t next_put_ = 1;
  std::unordered_map<std::uint64_t, PendingPut> pending_puts_;
  AgentStats stats_;
  MetricGroup metrics_;
};

struct ETransStats {
  std::uint64_t immediate_transfers = 0;
  std::uint64_t delegated_transfers = 0;
  std::uint64_t bytes_requested = 0;

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Engine-level retry policy for failed execution attempts.
struct ETransRecoveryConfig {
  int max_retries = 4;               // attempts = 1 + max_retries
  Tick initial_backoff = FromUs(25.0);
  Tick max_backoff = FromUs(800.0);
  double backoff_multiplier = 2.0;
};

struct ETransRecoveryStats {
  std::uint64_t attempt_failures = 0;  // attempts that ended not-ok
  std::uint64_t retries = 0;           // redrives scheduled
  std::uint64_t reroutes = 0;          // fabric-manager re-resolutions invoked
  std::uint64_t jobs_recovered = 0;    // succeeded after >= 1 failed attempt
  std::uint64_t jobs_aborted = 0;      // terminal failures (retries exhausted)
  Summary time_to_recover_us;          // first failure -> eventual success

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// The engine: validates descriptors, picks executors, and tracks futures.
class ETransEngine {
 public:
  explicit ETransEngine(Engine* engine, ETransRecoveryConfig recovery = {});

  // Registers an agent; `domain_node` is the memory node whose data this
  // agent can touch directly (its own host's DRAM / its chassis rDIMMs).
  // With `executor_candidate` false the agent is wired for messages (it
  // serves delegated jobs and push writes on its dispatcher) but PickExecutor
  // never selects it — callers that want it must submit with it as the
  // initiator. The collective engine registers FAA agents this way so
  // point-to-point eTrans placement is untouched.
  void RegisterAgent(PbrId domain_node, MigrationAgent* agent, bool executor_candidate = true);

  // Submits a descriptor on behalf of `initiator` (the agent co-located
  // with the submitting host). Returns a future per the ownership field.
  TransferFuture Submit(MigrationAgent* initiator, const ETransDescriptor& desc);

  // Hook invoked before each retry so the fabric manager can re-resolve
  // routes around whatever failed (FabricInterconnect::ConfigureRouting).
  void SetRerouteHook(std::function<void()> hook) { reroute_ = std::move(hook); }

  // Total bytes a descriptor moves; asserts src/dst symmetry.
  static std::uint64_t ValidateAndSize(const ETransDescriptor& desc);

  const ETransStats& stats() const { return stats_; }
  const ETransRecoveryStats& recovery_stats() const { return recovery_stats_; }
  const ETransRecoveryConfig& recovery_config() const { return recovery_; }

 private:
  // One logical transfer across all its execution attempts.
  struct PendingTransfer {
    ETransDescriptor desc;
    MigrationAgent* initiator = nullptr;
    TransferFuture future;
    int attempts = 0;
    Tick first_failure_at = 0;      // 0 until an attempt fails
    std::uint64_t job_id = 0;       // job id of the current attempt
    EventId deadline_event = kInvalidEventId;  // engine-side watchdog (remote)
    // Terminal-status bookkeeping lives in the future itself: Ready() means
    // a terminal status was delivered (TryFulfill enforces exactly-once).
  };

  MigrationAgent* PickExecutor(MigrationAgent* initiator, const ETransDescriptor& desc) const;
  void HandleAgentMessage(MigrationAgent* agent, const FabricMessage& msg);
  // Launches one execution attempt (local, immediate, or delegated).
  void Dispatch(const std::shared_ptr<PendingTransfer>& pt);
  // Terminal-or-retry decision for a finished attempt.
  void OnAttemptDone(const std::shared_ptr<PendingTransfer>& pt, TransferResult result);
  Tick RetryBackoff(int failed_attempts) const;

  Engine* engine_;
  ETransRecoveryConfig recovery_;
  std::unordered_map<PbrId, MigrationAgent*> agents_;           // by memory domain
  std::unordered_map<PbrId, MigrationAgent*> agents_by_self_;   // by adapter id
  // job id of the in-flight attempt -> transfer, for remote kInitiator
  // delegations awaiting a kTagDone (or an engine-side timeout).
  std::unordered_map<std::uint64_t, std::shared_ptr<PendingTransfer>> tracked_;
  std::function<void()> reroute_;
  std::uint64_t next_job_ = 1;
  // Transfer-lifecycle conservation: every submitted transfer must reach
  // exactly one terminal status (kOk / kTimedOut / kAborted), never two.
  std::uint64_t transfers_submitted_ = 0;
  std::uint64_t transfers_terminal_ = 0;
  std::uint64_t double_terminals_ = 0;  // attempts resolved after terminal
  ETransStats stats_;
  ETransRecoveryStats recovery_stats_;
  MetricGroup metrics_;
  MetricGroup recovery_metrics_;
  AuditScope audit_;

  friend class AuditTestPeer;
};

}  // namespace unifab

#endif  // SRC_CORE_ETRANS_H_
