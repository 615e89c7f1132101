#include "src/fabric/adapter.h"

#include <cassert>

namespace unifab {

void AdapterStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "reads_completed", [this] { return reads_completed; });
  group.AddCounterFn(prefix + "writes_completed", [this] { return writes_completed; });
  group.AddCounterFn(prefix + "messages_sent", [this] { return messages_sent; });
  group.AddCounterFn(prefix + "messages_delivered", [this] { return messages_delivered; });
  group.AddCounterFn(prefix + "mshr_failures", [this] { return mshr_failures; });
  group.AddCounterFn(prefix + "mshr_timeouts", [this] { return mshr_timeouts; });
  group.AddSummaryFn(prefix + "txn_latency_ns", [this] { return &txn_latency_ns; });
}

AdapterBase::AdapterBase(Engine* engine, const AdapterConfig& config, PbrId id, std::string name)
    : engine_(engine), config_(config), id_(id), name_(std::move(name)) {
  metrics_ = MetricGroup(&engine_->metrics(), "fabric/adapter/" + name_);
  stats_.BindTo(metrics_);
}

TranslationCache* AdapterBase::EnableTranslationCache(const TranslationCacheConfig& config) {
  xlat_cache_ = std::make_unique<TranslationCache>(config);
  xlat_cache_->stats().BindTo(metrics_, "xlat/");
  return xlat_cache_.get();
}

void AdapterBase::AttachLink(LinkEndpoint* endpoint) {
  link_ = endpoint;
  endpoint->Bind(this, 0);
  endpoint->SetDrainCallback([this] { PumpEgress(); });
}

void AdapterBase::Egress(Flit flit) {
  egress_.push_back(std::move(flit));
  PumpEgress();
}

void AdapterBase::PumpEgress() {
  assert(link_ != nullptr && "adapter has no link attached");
  while (!egress_.empty() && link_->Send(egress_.front())) {
    egress_.pop_front();
  }
}

void AdapterBase::OnLinkEpochChange(int /*port*/, bool link_up) {
  if (!link_up) {
    // Partially reassembled transactions lost flits to the failure; their
    // remainders will never arrive. Senders redrive whole transactions, so
    // stale partial progress must not be credited to the retry's flits.
    rx_progress_.clear();
  }
}

bool AdapterBase::Reassemble(const Flit& flit, std::shared_ptr<void>* body_out) {
  if (flit.total <= 1) {
    if (body_out != nullptr) {
      *body_out = flit.body;
    }
    return true;
  }
  // Transactions from different source adapters carry independent txn-id
  // spaces, so the reassembly key must include the source.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(flit.src) << 48) | (flit.txn_id & 0xFFFFFFFFFFFFULL);
  RxProgress& progress = rx_progress_[key];
  if (flit.body != nullptr) {
    progress.body = flit.body;
  }
  if (++progress.seen < flit.total) {
    return false;
  }
  if (body_out != nullptr) {
    *body_out = std::move(progress.body);
  }
  rx_progress_.erase(key);
  return true;
}

void AdapterBase::SendMessage(PbrId dst, Channel channel, Opcode opcode, std::uint64_t tag,
                              std::uint32_t bytes, std::shared_ptr<void> body) {
  const std::uint32_t cap = PayloadCap();
  const std::uint32_t nflits = bytes == 0 ? 1 : (bytes + cap - 1) / cap;
  const std::uint64_t txn = NextTxnId();
  ++stats_.messages_sent;
  engine_->Schedule(config_.request_proc_latency, [=, this] {
    std::uint32_t remaining = bytes;
    for (std::uint32_t i = 0; i < nflits; ++i) {
      Flit f;
      f.txn_id = txn;
      f.seq = i;
      f.total = nflits;
      f.channel = channel;
      f.opcode = opcode;
      f.src = id_;
      f.dst = dst;
      f.payload_bytes = remaining > cap ? cap : remaining;
      remaining -= f.payload_bytes;
      f.request_bytes = bytes;
      f.created_at = engine_->Now();
      f.tag = tag;
      if (i + 1 == nflits) {
        f.body = body;  // body rides the last flit
      }
      Egress(std::move(f));
    }
  });
}

void AdapterBase::DeliverMessage(const Flit& last_flit, std::shared_ptr<void> body) {
  ++stats_.messages_delivered;
  if (!message_handler_) {
    return;
  }
  FabricMessage msg;
  msg.src = last_flit.src;
  msg.opcode = last_flit.opcode;
  msg.tag = last_flit.tag;
  msg.bytes = last_flit.request_bytes;
  msg.body = std::move(body);
  engine_->Schedule(config_.response_proc_latency,
                    [this, msg = std::move(msg)] { message_handler_(msg); });
}

HostAdapter::HostAdapter(Engine* engine, const AdapterConfig& config, PbrId id, std::string name)
    : AdapterBase(engine, config, id, std::move(name)) {
  assert(config_.mshr_timeout > 0 && "every outstanding txn needs a response deadline");
  audit_ = AuditScope(&engine_->audit(), "fabric/adapter/" + name_);
  // No MSHR outlives its deadline epoch: the timeout event reclaims a txn at
  // exactly submitted_at + mshr_timeout, so at any event boundary every
  // outstanding txn is younger than (or at) its deadline.
  audit_.AddCheck("mshr_deadline", [this]() -> std::string {
    const Tick now = engine_->Now();
    for (const auto& [txn_id, txn] : outstanding_) {
      if (txn.submitted_at + config_.mshr_timeout < now) {
        return "txn " + std::to_string(txn_id) + " submitted at " +
               std::to_string(txn.submitted_at) + "ps outlived its deadline (now=" +
               std::to_string(now) + "ps, timeout=" + std::to_string(config_.mshr_timeout) +
               "ps)";
      }
    }
    return {};
  });
  // The MSHR pool never exceeds its limit, and requests only queue behind a
  // full pool (IssueReady drains pending_ until one of the two runs out).
  audit_.AddCheck("mshr_capacity", [this]() -> std::string {
    if (outstanding_.size() > config_.max_outstanding) {
      return "outstanding=" + std::to_string(outstanding_.size()) + " > max_outstanding=" +
             std::to_string(config_.max_outstanding);
    }
    if (!pending_.empty() && outstanding_.size() < config_.max_outstanding) {
      return std::to_string(pending_.size()) + " requests queued while only " +
             std::to_string(outstanding_.size()) + "/" +
             std::to_string(config_.max_outstanding) + " MSHRs in use";
    }
    return {};
  });
}

void HostAdapter::Submit(PbrId dst, const MemRequest& request, MemStatusCompletion on_complete) {
  pending_.push_back(PendingRequest{dst, request, std::move(on_complete)});
  IssueReady();
}

void HostAdapter::OnLinkEpochChange(int port, bool link_up) {
  AdapterBase::OnLinkEpochChange(port, link_up);
  if (link_up || outstanding_.empty()) {
    return;
  }
  // Every issued transaction's request or response was riding the dead
  // epoch; fail them all so the submitter can redrive (requests still queued
  // in egress_ survive the outage and drain after Recover, but their MSHRs
  // cannot be told apart, so they fail too and redrive redundantly).
  auto failed = std::move(outstanding_);
  outstanding_.clear();
  stats_.mshr_failures += failed.size();
  for (auto& [txn_id, txn] : failed) {
    engine_->Cancel(txn.timeout);
    if (txn.on_complete) {
      txn.on_complete(false);
    }
  }
  IssueReady();
}

void HostAdapter::IssueReady() {
  while (!pending_.empty() && outstanding_.size() < config_.max_outstanding) {
    PendingRequest pr = std::move(pending_.front());
    pending_.pop_front();
    IssueNow(std::move(pr));
  }
}

void HostAdapter::IssueNow(PendingRequest pr) {
  const std::uint64_t txn = NextTxnId();
  const EventId timeout =
      engine_->Schedule(config_.mshr_timeout, [this, txn] { TimeoutTxn(txn); });
  outstanding_.emplace(
      txn, OutstandingTxn{pr.request, std::move(pr.on_complete), engine_->Now(), timeout});

  const std::uint32_t cap = PayloadCap();
  const bool is_write = pr.request.type == MemRequest::Type::kWrite;
  // Reads go out as a single header flit; writes carry their payload.
  const std::uint32_t nflits = is_write ? (pr.request.bytes + cap - 1) / cap : 1;

  engine_->Schedule(config_.request_proc_latency, [this, txn, pr, nflits, cap, is_write] {
    std::uint32_t remaining = pr.request.bytes;
    for (std::uint32_t i = 0; i < nflits; ++i) {
      Flit f;
      f.txn_id = txn;
      f.seq = i;
      f.total = nflits;
      f.channel = pr.request.channel;
      f.opcode = is_write ? Opcode::kMemWr : Opcode::kMemRd;
      f.src = id_;
      f.dst = pr.dst;
      f.addr = pr.request.addr;
      f.payload_bytes = is_write ? (remaining > cap ? cap : remaining) : 0;
      if (is_write) {
        remaining -= f.payload_bytes;
      }
      f.request_bytes = pr.request.bytes;
      f.created_at = engine_->Now();
      Egress(std::move(f));
    }
  });
}

void HostAdapter::ReceiveFlit(const Flit& flit, int /*port*/) {
  // Host-side input buffers are sized generously; the slot frees as soon as
  // the flit is absorbed.
  link_->ReturnCredit(flit.channel);

  switch (flit.opcode) {
    case Opcode::kMemRdData:
    case Opcode::kMemWrAck:
      if (Reassemble(flit)) {
        const std::uint64_t txn = flit.txn_id;
        engine_->Schedule(config_.response_proc_latency, [this, txn] { CompleteTxn(txn); });
      }
      break;
    case Opcode::kMsg:
    case Opcode::kCreditQuery:
    case Opcode::kCreditGrant:
    case Opcode::kSnpInv:
    case Opcode::kSnpData:
    case Opcode::kSnpResp:
      if (std::shared_ptr<void> body; Reassemble(flit, &body)) {
        DeliverMessage(flit, std::move(body));
      }
      break;
    default:
      // Requests never arrive at a host adapter in this model.
      break;
  }
}

void HostAdapter::CompleteTxn(std::uint64_t txn_id) {
  auto it = outstanding_.find(txn_id);
  if (it == outstanding_.end()) {
    return;
  }
  OutstandingTxn txn = std::move(it->second);
  outstanding_.erase(it);

  engine_->Cancel(txn.timeout);
  stats_.txn_latency_ns.Add(ToNs(engine_->Now() - txn.submitted_at));
  if (txn.request.type == MemRequest::Type::kRead) {
    ++stats_.reads_completed;
  } else {
    ++stats_.writes_completed;
  }
  if (txn.on_complete) {
    txn.on_complete(true);
  }
  IssueReady();
}

void HostAdapter::TimeoutTxn(std::uint64_t txn_id) {
  auto it = outstanding_.find(txn_id);
  if (it == outstanding_.end()) {
    return;
  }
  // The request or its response was lost somewhere in the fabric (e.g.
  // black-holed at a switch whose output link failed); reclaim the MSHR so
  // the pool cannot wedge. A response arriving after this point finds no
  // MSHR and is dropped.
  OutstandingTxn txn = std::move(it->second);
  outstanding_.erase(it);
  ++stats_.mshr_timeouts;
  if (txn.on_complete) {
    txn.on_complete(false);
  }
  IssueReady();
}

EndpointAdapter::EndpointAdapter(Engine* engine, const AdapterConfig& config, PbrId id,
                                 std::string name, FabricTarget* target)
    : AdapterBase(engine, config, id, std::move(name)), target_(target) {}

void EndpointAdapter::ReceiveFlit(const Flit& flit, int /*port*/) {
  link_->ReturnCredit(flit.channel);

  switch (flit.opcode) {
    case Opcode::kMemRd:
      ServeRead(flit);
      break;
    case Opcode::kMemWr:
      if (Reassemble(flit)) {
        ServeWrite(flit);
      }
      break;
    case Opcode::kMsg:
    case Opcode::kCreditQuery:
    case Opcode::kCreditGrant:
    case Opcode::kSnpInv:
    case Opcode::kSnpData:
    case Opcode::kSnpResp:
      if (std::shared_ptr<void> body; Reassemble(flit, &body)) {
        DeliverMessage(flit, std::move(body));
      }
      break;
    default:
      break;
  }
}

void EndpointAdapter::ServeRead(const Flit& request) {
  engine_->Schedule(config_.request_proc_latency, [this, request] {
    assert(target_ != nullptr && "endpoint adapter has no device");
    target_->HandleRead(request.addr, request.request_bytes, [this, request] {
      ++stats_.reads_completed;
      SendResponse(request, Opcode::kMemRdData, request.request_bytes);
    });
  });
}

void EndpointAdapter::ServeWrite(const Flit& last_flit) {
  engine_->Schedule(config_.request_proc_latency, [this, last_flit] {
    assert(target_ != nullptr && "endpoint adapter has no device");
    target_->HandleWrite(last_flit.addr, last_flit.request_bytes, [this, last_flit] {
      ++stats_.writes_completed;
      SendResponse(last_flit, Opcode::kMemWrAck, 0);
    });
  });
}

void EndpointAdapter::SendResponse(const Flit& request, Opcode opcode, std::uint32_t bytes) {
  const std::uint32_t cap = PayloadCap();
  const std::uint32_t nflits = bytes == 0 ? 1 : (bytes + cap - 1) / cap;
  std::uint32_t remaining = bytes;
  for (std::uint32_t i = 0; i < nflits; ++i) {
    Flit f;
    f.txn_id = request.txn_id;
    f.seq = i;
    f.total = nflits;
    f.channel = request.channel;
    f.opcode = opcode;
    f.src = id_;
    f.dst = request.src;
    f.addr = request.addr;
    f.payload_bytes = remaining > cap ? cap : remaining;
    remaining -= f.payload_bytes;
    f.request_bytes = request.request_bytes;
    f.created_at = engine_->Now();
    Egress(std::move(f));
  }
}

}  // namespace unifab
