#include "src/fabric/switch.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace unifab {

void SwitchStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "flits_received", [this] { return flits_received; });
  group.AddCounterFn(prefix + "flits_forwarded", [this] { return flits_forwarded; });
  group.AddCounterFn(prefix + "flits_dropped", [this] { return flits_dropped; });
  group.AddCounterFn(prefix + "flits_unroutable", [this] { return flits_unroutable; });
  group.AddCounterFn(prefix + "hol_blocked_events", [this] { return hol_blocked_events; });
  group.AddSummaryFn(prefix + "queueing_ns", [this] { return &queueing_ns; });
}

FabricSwitch::FabricSwitch(Engine* engine, const SwitchConfig& config, std::string name)
    : engine_(engine), config_(config), name_(std::move(name)) {
  metrics_ = MetricGroup(&engine_->metrics(), "fabric/switch/" + name_);
  stats_.BindTo(metrics_);
  audit_ = AuditScope(&engine_->audit(), "fabric/switch/" + name_);
  // Every flit handed to ReceiveFlit is, at any event boundary, exactly one
  // of: forwarded, dropped at ingress, unroutable, or still buffered. The
  // buffered count is recomputed from the queues and must also match the
  // arbiter's running totals (queued_ and every waiting_[out]).
  audit_.AddCheck("flit_conservation", [this]() -> std::string {
    std::uint64_t buffered = 0;
    std::vector<std::uint64_t> per_out(ports_.size(), 0);
    for (const InputPort& in : inputs_) {
      for (const auto& q : in.queues) {
        buffered += q.size();
        for (const QueuedFlit& qf : q) {
          ++per_out[static_cast<std::size_t>(qf.out_port)];
        }
      }
    }
    const std::uint64_t ingress_drops = stats_.flits_dropped - crossbar_drops_;
    const std::uint64_t accounted =
        stats_.flits_forwarded + ingress_drops + stats_.flits_unroutable + buffered;
    if (stats_.flits_received != accounted) {
      return "received=" + std::to_string(stats_.flits_received) + " != forwarded(" +
             std::to_string(stats_.flits_forwarded) + ") + dropped(" +
             std::to_string(ingress_drops) + ") + unroutable(" +
             std::to_string(stats_.flits_unroutable) + ") + buffered(" +
             std::to_string(buffered) + ")";
    }
    if (queued_ != buffered) {
      return "queued=" + std::to_string(queued_) + " != buffered(" + std::to_string(buffered) +
             ")";
    }
    for (std::size_t out = 0; out < per_out.size(); ++out) {
      if (waiting_[out] != per_out[out]) {
        return "waiting[" + std::to_string(out) + "]=" + std::to_string(waiting_[out]) +
               " != buffered(" + std::to_string(per_out[out]) + ")";
      }
    }
    return {};
  });
}

int FabricSwitch::AttachPort(LinkEndpoint* endpoint) {
  const int port = static_cast<int>(ports_.size());
  ports_.push_back(endpoint);
  inputs_.emplace_back();
  outputs_.emplace_back();
  waiting_.push_back(0);
  endpoint->Bind(this, port);
  endpoint->SetDrainCallback([this] { ScheduleArbitration(); });
  // Size every input's queue vector for the new port count.
  for (auto& in : inputs_) {
    in.queues.resize(config_.virtual_output_queues ? ports_.size() : 1);
  }
  return port;
}

void FabricSwitch::SetRoute(PbrId dst, int out_port) {
  assert(out_port >= 0 && out_port < num_ports());
  routes_[dst] = out_port;
}

void FabricSwitch::SetDefaultRoute(int out_port) { default_route_ = out_port; }

int FabricSwitch::RouteFor(PbrId dst) const {
  auto it = routes_.find(dst);
  if (it != routes_.end()) {
    return it->second;
  }
  return default_route_;
}

void FabricSwitch::SetSourcePriority(PbrId src, int priority) { priorities_[src] = priority; }

int FabricSwitch::PriorityOf(PbrId src) const {
  auto it = priorities_.find(src);
  return it == priorities_.end() ? 0 : it->second;
}

void FabricSwitch::ReceiveFlit(const Flit& flit, int port) {
  assert(port >= 0 && port < num_ports());
  ++stats_.flits_received;
  const int out = RouteFor(flit.dst);
  // An unroutable flit is dropped; the input credit is returned so the link
  // does not wedge. Real switches raise an error interrupt here.
  if (out < 0) {
    ports_[port]->ReturnCredit(flit.channel);
    ++stats_.flits_unroutable;
    return;
  }
  // A reroute can overtake a mid-flight flit and leave its best path
  // pointing back out the port it arrived on. The crossbar cannot hairpin,
  // and parking the flit in the input==out VOQ would strand its credit and
  // eventually wedge the upstream link's whole credit window; treat it as a
  // loss instead — the sender's retry rides the new tables end to end.
  if (out == port) {
    ports_[port]->ReturnCredit(flit.channel);
    ++stats_.flits_dropped;
    return;
  }
  InputPort& in = inputs_[port];
  const std::size_t qi = config_.virtual_output_queues ? static_cast<std::size_t>(out) : 0;
  in.queues[qi].push_back(QueuedFlit{flit, out, engine_->Now(), arrival_counter_++});
  ++queued_;
  ++waiting_[static_cast<std::size_t>(out)];
  ScheduleArbitration();
}

void FabricSwitch::ScheduleArbitration() {
  if (arb_scheduled_) {
    return;
  }
  arb_scheduled_ = true;
  engine_->Schedule(0, [this] {
    arb_scheduled_ = false;
    Arbitrate();
  });
}

void FabricSwitch::Arbitrate() {
  // Credit reallocation is evaluated lazily on arbitration passes instead of
  // on a free-running timer, so an idle fabric lets the event queue drain.
  if (config_.credit_alloc == CreditAllocPolicy::kExponentialRampUp &&
      engine_->Now() >= next_realloc_) {
    ReallocateCredits();
    next_realloc_ = engine_->Now() + config_.credit_realloc_period;
  }
  // Keep matching inputs to outputs until no output can make progress or
  // nothing is left buffered. Most passes come from link drain callbacks
  // while the switch is empty; with no flit queued no output can move and
  // no single-FIFO head can block, so such a pass ends here.
  bool progress = true;
  while (progress && queued_ != 0) {
    progress = false;
    for (int out = 0; out < num_ports(); ++out) {
      if (ForwardOneTo(out)) {
        progress = true;
      }
    }
  }
}

bool FabricSwitch::HeadFor(int input, int out, QueuedFlit** head) {
  InputPort& in = inputs_[input];
  if (config_.virtual_output_queues) {
    auto& q = in.queues[static_cast<std::size_t>(out)];
    if (q.empty()) {
      return false;
    }
    *head = &q.front();
    return true;
  }
  auto& q = in.queues[0];
  if (q.empty() || q.front().out_port != out) {
    return false;
  }
  *head = &q.front();
  return true;
}

void FabricSwitch::PopHead(int input, int out) {
  InputPort& in = inputs_[input];
  auto& q = config_.virtual_output_queues ? in.queues[static_cast<std::size_t>(out)]
                                          : in.queues[0];
  q.pop_front();
  --queued_;
  --waiting_[static_cast<std::size_t>(out)];
}

bool FabricSwitch::OutputCanAccept(int out, Channel channel) const {
  const LinkEndpoint* ep = ports_[out];
  const std::uint32_t depth = ep->config().tx_queue_depth;
  const auto in_queue = static_cast<std::uint32_t>(ep->QueueDepth(channel));
  return in_queue + outputs_[out].reserved[static_cast<int>(channel)] < depth;
}

bool FabricSwitch::ArrivesBefore(const QueuedFlit& a, const QueuedFlit& b) {
  if (a.arrival != b.arrival) {
    return a.arrival < b.arrival;
  }
  if (a.flit.src != b.flit.src) {
    return a.flit.src < b.flit.src;
  }
  if (a.flit.txn_id != b.flit.txn_id) {
    return a.flit.txn_id < b.flit.txn_id;
  }
  if (a.flit.seq != b.flit.seq) {
    return a.flit.seq < b.flit.seq;
  }
  return a.order < b.order;
}

int FabricSwitch::PickInput(int out) {
  // Gather candidate inputs whose head flit wants `out` and whose channel
  // has room at the output.
  int best = -1;
  const QueuedFlit* best_head = nullptr;
  int best_priority = 0;
  double best_weight = 0.0;

  const int n = num_ports();
  OutputPort& op = outputs_[out];
  for (int i = 0; i < n; ++i) {
    const int input = (op.rr_next_input + i) % n;
    if (input == out) {
      continue;  // no hairpin turnaround
    }
    QueuedFlit* head = nullptr;
    if (!HeadFor(input, out, &head)) {
      continue;
    }
    if (!OutputCanAccept(out, head->flit.channel)) {
      continue;
    }
    switch (config_.arbitration) {
      case SwitchArbitration::kFifo:
        if (best < 0 || ArrivesBefore(*head, *best_head)) {
          best = input;
          best_head = head;
        }
        break;
      case SwitchArbitration::kRoundRobin:
        // First hit in rotation order wins.
        return input;
      case SwitchArbitration::kWeighted: {
        const double w = inputs_[input].weight;
        if (best < 0 || w > best_weight) {
          best = input;
          best_weight = w;
        }
        break;
      }
      case SwitchArbitration::kPriority: {
        const int p = PriorityOf(head->flit.src);
        if (best < 0 || p > best_priority ||
            (p == best_priority && ArrivesBefore(*head, *best_head))) {
          best = input;
          best_priority = p;
          best_head = head;
        }
        break;
      }
    }
  }
  return best;
}

bool FabricSwitch::ForwardOneTo(int out) {
  // With no flit buffered for `out`, no head can want it.
  const int input = waiting_[static_cast<std::size_t>(out)] == 0 ? -1 : PickInput(out);
  if (input < 0) {
    // Measure head-of-line blocking: in single-FIFO mode, count cases where
    // the head cannot move but a flit behind it could have.
    if (!config_.virtual_output_queues) {
      for (int i = 0; i < num_ports(); ++i) {
        auto& q = inputs_[i].queues[0];
        if (q.size() < 2) {
          continue;
        }
        const QueuedFlit& head = q.front();
        if (OutputCanAccept(head.out_port, head.flit.channel)) {
          continue;  // head is not blocked
        }
        for (std::size_t k = 1; k < q.size(); ++k) {
          if (q[k].out_port != head.out_port &&
              OutputCanAccept(q[k].out_port, q[k].flit.channel)) {
            ++stats_.hol_blocked_events;
            break;
          }
        }
      }
    }
    return false;
  }

  QueuedFlit* head = nullptr;
  const bool ok = HeadFor(input, out, &head);
  assert(ok);
  (void)ok;
  Flit flit = head->flit;
  const Tick waited = engine_->Now() - head->arrival;
  PopHead(input, out);

  outputs_[out].rr_next_input = (input + 1) % num_ports();
  outputs_[out].reserved[static_cast<int>(flit.channel)]++;
  inputs_[input].forwarded_this_period++;

  // The input buffer slot frees as soon as the flit enters the crossbar
  // (cut-through), so return the upstream credit now.
  ports_[input]->ReturnCredit(flit.channel);

  stats_.queueing_ns.Add(ToNs(waited));
  ++stats_.flits_forwarded;

  engine_->Schedule(config_.port_latency, [this, out, flit] {
    outputs_[out].reserved[static_cast<int>(flit.channel)]--;
    const bool sent = ports_[out]->Send(flit);
    if (!sent) {
      // The reservation guarantees queue room, so a refusal means the output
      // link failed while the flit crossed the crossbar: drop it (§3 #5 —
      // nothing downstream will signal the loss).
      ++stats_.flits_dropped;
      ++crossbar_drops_;
    }
    ScheduleArbitration();
  });
  return true;
}

void FabricSwitch::ReallocateCredits() {
  // Utilization-driven exponential ramp-up (§3, "a consistently
  // heavily-used port would take more credits"): ports forwarding more than
  // the average active port double their share; the rest decay. This is the
  // de facto allocator whose interference the D3b bench demonstrates.
  std::uint64_t total = 0;
  int active = 0;
  for (const auto& in : inputs_) {
    total += in.forwarded_this_period;
    if (in.forwarded_this_period > 0) {
      ++active;
    }
  }
  constexpr double kMaxWeight = 64.0;
  constexpr double kMinWeight = 1.0;
  const double avg = active > 0 ? static_cast<double>(total) / active : 0.0;
  for (auto& in : inputs_) {
    if (avg > 0.0 && static_cast<double>(in.forwarded_this_period) >= avg) {
      in.weight = std::min(kMaxWeight, in.weight * 2.0);
    } else {
      in.weight = std::max(kMinWeight, in.weight / 2.0);
    }
    in.forwarded_this_period = 0;
  }
}

}  // namespace unifab
