// Fabric switch model: PBR/HBR routing, input buffering, pluggable
// arbitration, and per-input credit allocation.
//
// The switch is deliberately configurable enough to reproduce the credit-
// based flow-control pathologies of paper §3 (Difference #3):
//   * credit allocation: an exponential ramp-up allocator that lets heavy
//     input ports accumulate forwarding share (vs a static equal split);
//   * credit-flow scheduling: FIFO arrival-order service that ignores credit
//     state (vs weighted and arbiter-directed priority service);
//   * head-of-line blocking: single-FIFO input queues (vs virtual output
//     queues).

#ifndef SRC_FABRIC_SWITCH_H_
#define SRC_FABRIC_SWITCH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/flit.h"
#include "src/fabric/link.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

// How an output port picks among competing input candidates.
enum class SwitchArbitration {
  kFifo,        // earliest arrival first, credit-agnostic (baseline)
  kRoundRobin,  // rotate across input ports
  kWeighted,    // weighted by the credit allocator's per-input share
  kPriority,    // strict priority by source PBR id (set by the central arbiter)
};

// How forwarding share (the switch's internal credits) is split across
// input ports.
enum class CreditAllocPolicy {
  kStatic,             // equal share for every input
  kExponentialRampUp,  // utilization-driven ramp-up (the de facto scheme, §3)
};

struct SwitchConfig {
  // Per-flit routing + crossbar traversal latency (FabreX: <100 ns/port).
  Tick port_latency = FromNs(90.0);

  // Input queueing discipline: one FIFO per input (false) exhibits
  // head-of-line blocking; per-output virtual queues (true) do not.
  bool virtual_output_queues = true;

  SwitchArbitration arbitration = SwitchArbitration::kRoundRobin;
  CreditAllocPolicy credit_alloc = CreditAllocPolicy::kStatic;

  // Exponential ramp-up period: every period, an input's weight doubles
  // (up to 64) when it kept its backlog nonempty and halves (down to 1)
  // otherwise.
  Tick credit_realloc_period = FromNs(1000.0);
};

struct SwitchStats {
  std::uint64_t flits_received = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t flits_dropped = 0;       // output link failed mid-crossbar, or
                                         // a post-reroute hairpin (route points
                                         // back out the arrival port)
  std::uint64_t flits_unroutable = 0;    // no route for the destination
  std::uint64_t hol_blocked_events = 0;  // head blocked while a later flit could go
  Summary queueing_ns;                   // input-buffer residency per flit

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

class FabricSwitch : public FlitReceiver {
 public:
  FabricSwitch(Engine* engine, const SwitchConfig& config, std::string name);

  // Attaches a link endpoint as the next port. Returns the port index.
  int AttachPort(LinkEndpoint* endpoint);

  // Routing table management (normally driven by the FabricManager).
  void SetRoute(PbrId dst, int out_port);
  void SetDefaultRoute(int out_port);  // HBR escape route for foreign domains
  int RouteFor(PbrId dst) const;  // -1 when unroutable
  // Drops all routes (exact and default); used by the fabric manager before
  // re-running discovery after a topology change or link failure.
  void ClearRoutes() {
    routes_.clear();
    default_route_ = -1;
  }

  // Arbiter-directed priorities (higher value = served first) for
  // SwitchArbitration::kPriority.
  void SetSourcePriority(PbrId src, int priority);

  // FlitReceiver:
  void ReceiveFlit(const Flit& flit, int port) override;

  const SwitchStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  int num_ports() const { return static_cast<int>(ports_.size()); }
  double InputWeight(int port) const { return inputs_[port].weight; }

 private:
  struct QueuedFlit {
    Flit flit;
    int out_port;
    Tick arrival;
    std::uint64_t order;  // global enqueue order (tie-break of last resort)
  };

  // FIFO service order: earliest arrival tick first; same-tick arrivals are
  // ordered by flit identity (src, txn_id, seq) rather than by the enqueue
  // counter, so the winner does not depend on how the engine interleaved
  // same-tick deliveries across input ports. `order` only breaks the
  // (impossible for distinct flits) full-identity tie.
  static bool ArrivesBefore(const QueuedFlit& a, const QueuedFlit& b);

  struct InputPort {
    // Non-VOQ mode uses queues[0]; VOQ mode uses one queue per output port.
    std::vector<std::deque<QueuedFlit>> queues;
    double weight = 1.0;
    std::uint64_t forwarded_this_period = 0;
  };

  struct OutputPort {
    int rr_next_input = 0;
    // Tx-queue slots reserved by flits in flight across the crossbar, per
    // channel, so we never over-commit endpoint queues.
    std::uint32_t reserved[kNumChannels] = {0, 0, 0, 0};
  };

  void ScheduleArbitration();
  // Costs O(1) when no flit is buffered, so the drain callbacks that find
  // an idle switch skip the n x n scan.
  void Arbitrate();
  // Attempts to forward one flit to `out`. Returns true if a flit moved.
  // An output with nothing waiting skips the input scan; single-FIFO mode
  // still runs its head-of-line scan.
  bool ForwardOneTo(int out);
  // Picks the input whose head (for `out`) should win, or -1.
  int PickInput(int out);
  bool HeadFor(int input, int out, QueuedFlit** head);
  void PopHead(int input, int out);
  bool OutputCanAccept(int out, Channel channel) const;
  void ReallocateCredits();
  int PriorityOf(PbrId src) const;

  Engine* engine_;
  SwitchConfig config_;
  std::string name_;
  std::vector<LinkEndpoint*> ports_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  std::unordered_map<PbrId, int> routes_;
  std::unordered_map<PbrId, int> priorities_;
  int default_route_ = -1;
  Tick next_realloc_ = 0;
  bool arb_scheduled_ = false;
  std::uint64_t arrival_counter_ = 0;
  // Flits held in input buffers, in total and per output port. Updated only
  // in ReceiveFlit (enqueue) and PopHead (dequeue); the flit_conservation
  // audit check recounts both from the queues.
  std::uint64_t queued_ = 0;
  std::vector<std::uint64_t> waiting_;
  // Forwarded flits dropped because the output link failed mid-crossbar; the
  // rest of flits_dropped never left an input buffer.
  std::uint64_t crossbar_drops_ = 0;
  SwitchStats stats_;
  MetricGroup metrics_;  // after the state the metrics and checks read
  AuditScope audit_;
  friend class AuditTestPeer;
};

}  // namespace unifab

#endif  // SRC_FABRIC_SWITCH_H_
