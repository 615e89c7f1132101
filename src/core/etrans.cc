#include "src/core/etrans.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace unifab {
namespace {

// Tag payloads distinguishing eTrans message kinds.
constexpr std::uint64_t kTagJob = 1;
constexpr std::uint64_t kTagDone = 2;
constexpr std::uint64_t kTagPut = 3;     // push: chunk payload toward its dst agent
constexpr std::uint64_t kTagPutAck = 4;  // push: durable-at-destination ack

struct DoneMsg {
  std::uint64_t job_id;
  TransferResult result;
};

struct PutMsg {
  std::uint64_t put_id;
  std::uint64_t addr;   // absolute address in the destination's local memory
  std::uint32_t bytes;
};

struct PutAckMsg {
  std::uint64_t put_id;
  bool ok;
};

}  // namespace

void AgentStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "jobs_executed", [this] { return jobs_executed; });
  group.AddCounterFn(prefix + "jobs_timed_out", [this] { return jobs_timed_out; });
  group.AddCounterFn(prefix + "chunks_failed", [this] { return chunks_failed; });
  group.AddCounterFn(prefix + "bytes_moved", [this] { return bytes_moved; });
  group.AddCounterFn(prefix + "throttle_waits", [this] { return throttle_waits; });
  group.AddCounterFn(prefix + "lease_denials", [this] { return lease_denials; });
  group.AddCounterFn(prefix + "pushes_sent", [this] { return pushes_sent; });
  group.AddCounterFn(prefix + "pushes_served", [this] { return pushes_served; });
  group.AddCounterFn(prefix + "push_timeouts", [this] { return push_timeouts; });
  group.AddSummaryFn(prefix + "job_latency_us", [this] { return &job_latency_us; });
}

MigrationAgent::MigrationAgent(Engine* engine, MessageDispatcher* dispatcher,
                               DramDevice* local_mem, ArbiterClient* arbiter, std::string name)
    : engine_(engine),
      dispatcher_(dispatcher),
      local_mem_(local_mem),
      arbiter_(arbiter),
      name_(std::move(name)) {
  metrics_ = MetricGroup(&engine_->metrics(), "core/etrans/agent/" + name_);
  stats_.BindTo(metrics_);
}

std::pair<const Segment*, std::uint64_t> MigrationAgent::Locate(
    const std::vector<Segment>& segs, std::uint64_t offset) {
  for (const auto& seg : segs) {
    if (offset < seg.bytes) {
      return {&seg, offset};
    }
    offset -= seg.bytes;
  }
  return {nullptr, 0};
}

Tick MigrationAgent::AttemptDeadline(const ETransDescriptor& desc, double rate_mbps) {
  const ETransAttributes& attrs = desc.attributes;
  std::uint64_t total = 0;
  for (const auto& s : desc.src) {
    total += s.bytes;
  }
  if (rate_mbps <= 0.0) {
    rate_mbps = attrs.request_mbps > 0.0 ? attrs.request_mbps : 8000.0;
  }
  // MB/s is bytes/us, so the ideal copy time in us is bytes / rate.
  const double ideal_us = static_cast<double>(total) / rate_mbps;
  return attrs.deadline_floor +
         static_cast<Tick>(attrs.deadline_factor * ideal_us * static_cast<double>(kTicksPerUs));
}

Tick MigrationAgent::LeaseBackoff(int retries) {
  constexpr Tick kCap = FromUs(100.0);
  if (retries < 0) {
    retries = 0;
  }
  // Bound the shift before clamping so a large retry count cannot overflow.
  const int shift = retries > 5 ? 5 : retries;
  const Tick backoff = FromUs(5.0) << shift;
  return backoff > kCap ? kCap : backoff;
}

void MigrationAgent::ExecuteTransfer(const TransferJob& job,
                                     std::function<void(TransferResult)> done) {
  auto active = std::make_shared<ActiveJob>();
  active->job = job;
  active->done = std::move(done);
  active->started_at = engine_->Now();
  active->total = ETransEngine::ValidateAndSize(job.desc);
  // Armed before any lease traffic, at the requested rate, so even a lost
  // arbiter control message cannot wedge the attempt; re-armed at the
  // (slower) granted rate once the lease lands.
  ArmWatchdog(active, 0.0);
  StartJob(active);
}

void MigrationAgent::ArmWatchdog(const std::shared_ptr<ActiveJob>& job, double rate_mbps) {
  if (job->watchdog != kInvalidEventId) {
    engine_->Cancel(job->watchdog);
  }
  const Tick deadline = AttemptDeadline(job->job.desc, rate_mbps);
  job->watchdog = engine_->Schedule(deadline, [this, job] {
    job->watchdog = kInvalidEventId;
    if (job->dead || job->completed >= job->total) {
      return;
    }
    ++stats_.jobs_timed_out;
    FailJob(job, TransferStatus::kTimedOut);
  });
}

void MigrationAgent::FailJob(const std::shared_ptr<ActiveJob>& job, TransferStatus status) {
  if (job->dead || job->completed >= job->total) {
    return;  // already failed, or the attempt raced to completion
  }
  job->dead = true;
  if (job->watchdog != kInvalidEventId) {
    engine_->Cancel(job->watchdog);
    job->watchdog = kInvalidEventId;
  }
  if (job->granted_mbps > 0.0 && arbiter_ != nullptr) {
    const ETransAttributes& attrs = job->job.desc.attributes;
    arbiter_->Release(job->lease_resource, job->granted_mbps, attrs.tenant, attrs.qos);
    job->granted_mbps = 0.0;
  }
  if (job->done) {
    job->done(TransferResult{false, status, engine_->Now(), job->completed});
  }
}

void MigrationAgent::StartJob(std::shared_ptr<ActiveJob> job) {
  const ETransAttributes& attrs = job->job.desc.attributes;
  // Immediate transfers are the synchronous urgent path and bypass the
  // lease machinery; delegated bulk traffic is what the arbiter paces.
  if (!job->job.desc.immediate && attrs.throttled && arbiter_ != nullptr &&
      !job->job.desc.dst.empty()) {
    // Lease bandwidth toward the (first) destination node; pace chunks at
    // the granted rate.
    job->lease_resource = job->job.desc.dst.front().node;
    arbiter_->Reserve(job->lease_resource, attrs.request_mbps, attrs.tenant, attrs.qos,
                      [this, job](double granted) {
      if (job->dead) {
        // The watchdog already killed this attempt; hand the late grant
        // straight back.
        if (granted > 0.0 && arbiter_ != nullptr) {
          const ETransAttributes& a = job->job.desc.attributes;
          arbiter_->Release(job->lease_resource, granted, a.tenant, a.qos);
        }
        return;
      }
      if (granted <= 0.0) {
        ++stats_.lease_denials;
        if (++job->lease_retries <= kMaxLeaseRetries) {
          // Congestion: bounded exponential backoff before asking again.
          engine_->Schedule(LeaseBackoff(job->lease_retries), [this, job] { StartJob(job); });
          return;
        }
        // The resource is unmanaged or persistently saturated; fall through
        // unthrottled rather than stalling the transfer forever.
        job->granted_mbps = 0.0;
        PumpChunks(job);
        return;
      }
      job->granted_mbps = granted;
      job->next_issue_at = engine_->Now();
      job->lease_renew_at = engine_->Now() + arbiter_->lease_duration();
      if (granted < job->job.desc.attributes.request_mbps) {
        // Paced below the requested rate: stretch the deadline to match.
        ArmWatchdog(job, granted);
      }
      PumpChunks(job);
    });
    return;
  }
  job->granted_mbps = 0.0;  // unthrottled
  PumpChunks(job);
}

void MigrationAgent::MaybeRenewLease(const std::shared_ptr<ActiveJob>& job) {
  if (job->dead || job->granted_mbps <= 0.0 || arbiter_ == nullptr || job->renew_pending ||
      engine_->Now() < job->lease_renew_at) {
    return;
  }
  // Renew at the lease cadence; the arbiter re-runs max-min over the
  // currently active flows, so long transfers converge to their fair share
  // as contention changes.
  job->renew_pending = true;
  arbiter_->Reserve(job->lease_resource, job->job.desc.attributes.request_mbps,
                    job->job.desc.attributes.tenant, job->job.desc.attributes.qos,
                    [this, job](double granted) {
                      job->renew_pending = false;
                      if (job->dead) {
                        if (granted > 0.0 && arbiter_ != nullptr) {
                          const ETransAttributes& a = job->job.desc.attributes;
                          arbiter_->Release(job->lease_resource, granted, a.tenant, a.qos);
                        }
                        return;
                      }
                      if (granted > 0.0) {
                        job->granted_mbps = granted;
                      }
                      job->lease_renew_at = engine_->Now() + arbiter_->lease_duration();
                      PumpChunks(job);
                    });
}

void MigrationAgent::PumpChunks(const std::shared_ptr<ActiveJob>& job) {
  if (job->dead) {
    return;
  }
  const ETransAttributes& attrs = job->job.desc.attributes;
  MaybeRenewLease(job);
  while (job->offset < job->total && job->in_flight < attrs.pipeline_depth) {
    const std::uint32_t bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(attrs.chunk_bytes, job->total - job->offset));
    if (job->granted_mbps > 0.0) {
      // Strict per-chunk pacing: bytes / (MB/s) = us per chunk, and a chunk
      // issues no earlier than the token clock. An idle stretch earns no
      // burst credit: the clock restarts from now.
      const Tick pace = static_cast<Tick>(static_cast<double>(bytes) / job->granted_mbps *
                                          static_cast<double>(kTicksPerUs));
      const Tick now = engine_->Now();
      if (now < job->next_issue_at) {
        // Rate limited: resume when the token clock comes due. A wakeup
        // already armed at or before that tick will re-evaluate for us —
        // don't schedule a duplicate.
        ++stats_.throttle_waits;
        const Tick wake_at = job->next_issue_at;
        if (!job->pump_wakeup_armed || job->pump_wakeup_at > wake_at) {
          job->pump_wakeup_armed = true;
          job->pump_wakeup_at = wake_at;
          engine_->ScheduleAt(wake_at, [this, job] {
            job->pump_wakeup_armed = false;
            PumpChunks(job);
          });
        }
        return;
      }
      job->next_issue_at = std::max(job->next_issue_at, now) + pace;
    }
    IssueChunk(job, job->offset, bytes);
    job->offset += bytes;
    ++job->in_flight;
  }
}

void MigrationAgent::IssueChunk(const std::shared_ptr<ActiveJob>& job, std::uint64_t offset,
                                std::uint32_t bytes) {
  const auto [src, src_off] = Locate(job->job.desc.src, offset);
  assert(src != nullptr);
  // Chunks never straddle segment boundaries in well-formed descriptors
  // produced by the engine; clamp defensively.
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(bytes, src->bytes - src_off));

  ReadSegment(*src, src_off, n, [this, job, offset, n](bool ok) {
    if (job->dead) {
      return;  // late completion of an abandoned attempt
    }
    if (!ok) {
      ++stats_.chunks_failed;
      FailJob(job, TransferStatus::kTimedOut);
      return;
    }
    const auto [dst, dst_off] = Locate(job->job.desc.dst, offset);
    assert(dst != nullptr);
    const std::uint32_t w =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(n, dst->bytes - dst_off));
    WriteSegment(*dst, dst_off, w, [this, job, w](bool ok2) {
      if (job->dead) {
        return;
      }
      if (!ok2) {
        ++stats_.chunks_failed;
        FailJob(job, TransferStatus::kTimedOut);
        return;
      }
      job->completed += w;
      --job->in_flight;
      stats_.bytes_moved += w;
      if (job->completed >= job->total) {
        if (job->watchdog != kInvalidEventId) {
          engine_->Cancel(job->watchdog);
          job->watchdog = kInvalidEventId;
        }
        ++stats_.jobs_executed;
        stats_.job_latency_us.Add(ToUs(engine_->Now() - job->started_at));
        if (job->granted_mbps > 0.0 && arbiter_ != nullptr) {
          const ETransAttributes& a = job->job.desc.attributes;
          arbiter_->Release(job->lease_resource, job->granted_mbps, a.tenant, a.qos);
        }
        if (job->done) {
          job->done(TransferResult{true, TransferStatus::kOk, engine_->Now(), job->total});
        }
        return;
      }
      PumpChunks(job);
    });
  });
}

void MigrationAgent::ReadSegment(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                                 std::function<void(bool)> done) {
  if (seg.node == fabric_id() && local_mem_ != nullptr) {
    local_mem_->Access(seg.addr + offset, bytes, /*is_write=*/false,
                       [cb = std::move(done)] { cb(true); });
    return;
  }
  auto* host = dynamic_cast<HostAdapter*>(dispatcher_->adapter());
  assert(host != nullptr && "remote segment but agent has no host adapter");
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.addr = seg.addr + offset;
  req.bytes = bytes;
  req.channel = Channel::kMem;
  host->Submit(seg.node, req, std::move(done));
}

void MigrationAgent::WriteSegment(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                                  std::function<void(bool)> done) {
  if (seg.node == fabric_id() && local_mem_ != nullptr) {
    local_mem_->Access(seg.addr + offset, bytes, /*is_write=*/true,
                       [cb = std::move(done)] { cb(true); });
    return;
  }
  auto* host = dynamic_cast<HostAdapter*>(dispatcher_->adapter());
  if (host == nullptr && push_enabled_) {
    PushRemote(seg, offset, bytes, std::move(done));
    return;
  }
  assert(host != nullptr && "remote segment but agent has no host adapter");
  MemRequest req;
  req.type = MemRequest::Type::kWrite;
  req.addr = seg.addr + offset;
  req.bytes = bytes;
  req.channel = Channel::kMem;
  host->Submit(seg.node, req, std::move(done));
}

void MigrationAgent::PushRemote(const Segment& seg, std::uint64_t offset, std::uint32_t bytes,
                                std::function<void(bool)> done) {
  const std::uint64_t put_id = next_put_++;
  PendingPut& pending = pending_puts_[put_id];
  pending.done = std::move(done);
  pending.timeout = engine_->Schedule(kPutAckTimeout, [this, put_id] {
    auto it = pending_puts_.find(put_id);
    if (it == pending_puts_.end()) {
      return;  // acked in time
    }
    ++stats_.push_timeouts;
    auto cb = std::move(it->second.done);
    pending_puts_.erase(it);
    cb(false);
  });
  ++stats_.pushes_sent;
  auto msg = std::make_shared<PutMsg>(PutMsg{put_id, seg.addr + offset, bytes});
  // The chunk payload rides the message, so the wire time of the push is the
  // real serialization cost of `bytes` on this agent's own uplink.
  dispatcher_->Send(seg.node, kSvcETrans, kTagPut, bytes, std::move(msg), Channel::kMem);
}

void MigrationAgent::ServePut(const FabricMessage& msg) {
  const auto put = std::static_pointer_cast<PutMsg>(msg.body);
  assert(put != nullptr);
  const PbrId requester = msg.src;
  const std::uint64_t put_id = put->put_id;
  auto ack = [this, requester, put_id](bool ok) {
    auto body = std::make_shared<PutAckMsg>(PutAckMsg{put_id, ok});
    dispatcher_->Send(requester, kSvcETrans, kTagPutAck, 64, std::move(body), Channel::kMem);
  };
  if (local_mem_ == nullptr) {
    ack(false);
    return;
  }
  ++stats_.pushes_served;
  local_mem_->Access(put->addr, put->bytes, /*is_write=*/true, [ack] { ack(true); });
}

void MigrationAgent::CompletePut(std::uint64_t put_id, bool ok) {
  auto it = pending_puts_.find(put_id);
  if (it == pending_puts_.end()) {
    return;  // the timeout already failed this push; ignore the late ack
  }
  if (it->second.timeout != kInvalidEventId) {
    engine_->Cancel(it->second.timeout);
  }
  auto cb = std::move(it->second.done);
  pending_puts_.erase(it);
  cb(ok);
}

void ETransStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "immediate_transfers", [this] { return immediate_transfers; });
  group.AddCounterFn(prefix + "delegated_transfers", [this] { return delegated_transfers; });
  group.AddCounterFn(prefix + "bytes_requested", [this] { return bytes_requested; });
}

void ETransRecoveryStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "attempt_failures", [this] { return attempt_failures; });
  group.AddCounterFn(prefix + "retries", [this] { return retries; });
  group.AddCounterFn(prefix + "reroutes", [this] { return reroutes; });
  group.AddCounterFn(prefix + "jobs_recovered", [this] { return jobs_recovered; });
  group.AddCounterFn(prefix + "jobs_aborted", [this] { return jobs_aborted; });
  group.AddSummaryFn(prefix + "time_to_recover_us", [this] { return &time_to_recover_us; });
}

ETransEngine::ETransEngine(Engine* engine, ETransRecoveryConfig recovery)
    : engine_(engine), recovery_(recovery) {
  metrics_ = MetricGroup(&engine_->metrics(), "core/etrans/engine");
  stats_.BindTo(metrics_);
  recovery_metrics_ = MetricGroup(&engine_->metrics(), "recovery/etrans");
  recovery_stats_.BindTo(recovery_metrics_);
  audit_ = AuditScope(&engine_->audit(), "core/etrans/engine");
  // Every transfer reaches exactly one terminal status: OnAttemptDone
  // refusing a second resolution counts it here instead of fulfilling the
  // future twice (which would assert — or worse, silently double-complete).
  audit_.AddCheck("terminal_exactly_once", [this]() -> std::string {
    if (double_terminals_ != 0) {
      return std::to_string(double_terminals_) +
             " transfer(s) re-resolved after reaching a terminal status";
    }
    return {};
  });
  // Lifecycle conservation: terminals never outrun submissions, and every
  // tracked remote delegation belongs to a still-live transfer.
  audit_.AddCheck("transfer_conservation", [this]() -> std::string {
    if (transfers_terminal_ > transfers_submitted_) {
      return "terminal=" + std::to_string(transfers_terminal_) + " > submitted=" +
             std::to_string(transfers_submitted_);
    }
    const std::uint64_t live = transfers_submitted_ - transfers_terminal_;
    if (tracked_.size() > live) {
      return std::to_string(tracked_.size()) + " tracked delegations but only " +
             std::to_string(live) + " live transfers";
    }
    return {};
  });
}

void ETransEngine::RegisterAgent(PbrId domain_node, MigrationAgent* agent,
                                 bool executor_candidate) {
  if (executor_candidate) {
    agents_[domain_node] = agent;
  }
  agents_by_self_[agent->fabric_id()] = agent;
  agent->dispatcher()->RegisterService(
      kSvcETrans, [this, agent](const FabricMessage& msg) { HandleAgentMessage(agent, msg); });
}

std::uint64_t ETransEngine::ValidateAndSize(const ETransDescriptor& desc) {
  std::uint64_t src_bytes = 0;
  std::uint64_t dst_bytes = 0;
  for (const auto& s : desc.src) {
    src_bytes += s.bytes;
  }
  for (const auto& d : desc.dst) {
    dst_bytes += d.bytes;
  }
  assert(src_bytes == dst_bytes && "eTrans descriptor src/dst size mismatch");
  return src_bytes;
}

bool MigrationAgent::CanExecute(const ETransDescriptor& desc) const {
  if (dynamic_cast<HostAdapter*>(dispatcher_->adapter()) != nullptr) {
    return true;
  }
  for (const auto& s : desc.src) {
    if (s.node != fabric_id()) {
      return false;
    }
  }
  for (const auto& d : desc.dst) {
    // Push-enabled endpoint agents reach remote destinations via kTagPut.
    if (d.node != fabric_id() && !push_enabled_) {
      return false;
    }
  }
  return local_mem_ != nullptr;
}

MigrationAgent* ETransEngine::PickExecutor(MigrationAgent* initiator,
                                           const ETransDescriptor& desc) const {
  // Prefer an agent in the source data's memory domain, then the
  // destination's, then fall back to the initiator.
  if (!desc.src.empty()) {
    if (auto it = agents_.find(desc.src.front().node);
        it != agents_.end() && it->second->CanExecute(desc)) {
      return it->second;
    }
  }
  if (!desc.dst.empty()) {
    if (auto it = agents_.find(desc.dst.front().node);
        it != agents_.end() && it->second->CanExecute(desc)) {
      return it->second;
    }
  }
  return initiator;
}

TransferFuture ETransEngine::Submit(MigrationAgent* initiator, const ETransDescriptor& desc) {
  const std::uint64_t total = ValidateAndSize(desc);
  stats_.bytes_requested += total;
  if (desc.immediate) {
    ++stats_.immediate_transfers;
  } else {
    ++stats_.delegated_transfers;
  }

  auto pt = std::make_shared<PendingTransfer>();
  pt->desc = desc;
  pt->initiator = initiator;
  pt->future.set_ownership(desc.ownership);
  pt->future.set_owner(initiator->fabric_id());
  ++transfers_submitted_;
  Dispatch(pt);
  return pt->future;
}

Tick ETransEngine::RetryBackoff(int failed_attempts) const {
  double backoff = static_cast<double>(recovery_.initial_backoff);
  for (int i = 1; i < failed_attempts; ++i) {
    backoff *= recovery_.backoff_multiplier;
  }
  const double cap = static_cast<double>(recovery_.max_backoff);
  return static_cast<Tick>(backoff > cap ? cap : backoff);
}

void ETransEngine::Dispatch(const std::shared_ptr<PendingTransfer>& pt) {
  // Each attempt gets a fresh job id so a stale kTagDone (or a late chunk
  // completion) from an abandoned attempt can never be credited to a retry.
  TransferJob job;
  job.job_id = next_job_++;
  job.desc = pt->desc;
  pt->job_id = job.job_id;

  if (pt->desc.immediate) {
    // Synchronous urgent path: the initiator moves the data itself.
    pt->initiator->ExecuteTransfer(
        job, [this, pt](TransferResult r) { OnAttemptDone(pt, r); });
    return;
  }

  // The executor is re-picked per attempt: after a reroute the same domain
  // may be reachable again, or the initiator takes over as fallback.
  MigrationAgent* executor = PickExecutor(pt->initiator, pt->desc);
  job.reply_to =
      pt->desc.ownership == Ownership::kInitiator ? pt->initiator->fabric_id() : kInvalidPbrId;

  if (executor == pt->initiator) {
    executor->ExecuteTransfer(
        job, [this, pt](TransferResult r) { OnAttemptDone(pt, r); });
    return;
  }

  // Delegate over the fabric: small control message carries the descriptor.
  if (pt->desc.ownership == Ownership::kInitiator) {
    tracked_[job.job_id] = pt;
    // The executor-side deadline cannot help when the kTagJob/kTagDone
    // control messages themselves are lost, so the engine arms a laxer
    // watchdog of its own per remote attempt.
    const Tick deadline =
        2 * MigrationAgent::AttemptDeadline(pt->desc, pt->desc.attributes.request_mbps);
    const std::uint64_t job_id = job.job_id;
    pt->deadline_event = engine_->Schedule(deadline, [this, job_id] {
      auto it = tracked_.find(job_id);
      if (it == tracked_.end()) {
        return;  // a kTagDone beat the timeout
      }
      const std::shared_ptr<PendingTransfer> late = it->second;
      tracked_.erase(it);
      late->deadline_event = kInvalidEventId;
      OnAttemptDone(late,
                    TransferResult{false, TransferStatus::kTimedOut, engine_->Now(), 0});
    });
  }
  pt->initiator->dispatcher()->Send(executor->fabric_id(), kSvcETrans, kTagJob, 64,
                                    std::make_shared<TransferJob>(job),
                                    pt->desc.attributes.channel);
}

void ETransEngine::OnAttemptDone(const std::shared_ptr<PendingTransfer>& pt,
                                 TransferResult result) {
  if (pt->deadline_event != kInvalidEventId) {
    engine_->Cancel(pt->deadline_event);
    pt->deadline_event = kInvalidEventId;
  }
  tracked_.erase(pt->job_id);
  if (pt->future.Ready()) {
    // A straggler attempt resolving a transfer that already reached its
    // terminal status. Fulfilling again would double-complete the future;
    // record the violation for the auditor and drop the result.
    ++double_terminals_;
    return;
  }
  ++pt->attempts;

  if (result.ok) {
    result.status = TransferStatus::kOk;
    if (pt->first_failure_at != 0) {
      ++recovery_stats_.jobs_recovered;
      recovery_stats_.time_to_recover_us.Add(ToUs(engine_->Now() - pt->first_failure_at));
    }
    ++transfers_terminal_;
    pt->future.Fulfill(result);
    return;
  }

  ++recovery_stats_.attempt_failures;
  if (pt->first_failure_at == 0) {
    pt->first_failure_at = engine_->Now();
  }

  if (pt->attempts > recovery_.max_retries) {
    // Terminal: keep the last attempt's status when retries were disabled,
    // report kAborted when the retry budget was actually spent.
    if (recovery_.max_retries > 0) {
      result.status = TransferStatus::kAborted;
    }
    result.ok = false;
    result.completed_at = engine_->Now();
    ++recovery_stats_.jobs_aborted;
    ++transfers_terminal_;
    pt->future.Fulfill(result);
    return;
  }

  ++recovery_stats_.retries;
  if (reroute_) {
    // Let the fabric manager rebuild routing tables around whatever died
    // before the redrive resolves its path.
    reroute_();
    ++recovery_stats_.reroutes;
  }
  engine_->Schedule(RetryBackoff(pt->attempts), [this, pt] { Dispatch(pt); });
}

void ETransEngine::HandleAgentMessage(MigrationAgent* agent, const FabricMessage& msg) {
  switch (TagPayload(msg.tag)) {
    case kTagJob: {
      const auto job = std::static_pointer_cast<TransferJob>(msg.body);
      assert(job != nullptr);
      agent->ExecuteTransfer(*job, [agent, job](TransferResult result) {
        if (job->reply_to == kInvalidPbrId) {
          return;  // executor/detached ownership: no notification
        }
        // Failures travel back too: the initiator-side engine owns retry.
        auto done = std::make_shared<DoneMsg>(DoneMsg{job->job_id, result});
        agent->dispatcher()->Send(job->reply_to, kSvcETrans, kTagDone, 64, std::move(done),
                                  Channel::kMem);
      });
      return;
    }
    case kTagDone: {
      const auto done = std::static_pointer_cast<DoneMsg>(msg.body);
      assert(done != nullptr);
      auto it = tracked_.find(done->job_id);
      if (it == tracked_.end()) {
        return;  // stale: this attempt already timed out and was redriven
      }
      const std::shared_ptr<PendingTransfer> pt = it->second;
      tracked_.erase(it);
      OnAttemptDone(pt, done->result);
      return;
    }
    case kTagPut: {
      agent->ServePut(msg);
      return;
    }
    case kTagPutAck: {
      const auto ack = std::static_pointer_cast<PutAckMsg>(msg.body);
      assert(ack != nullptr);
      agent->CompletePut(ack->put_id, ack->ok);
      return;
    }
    default:
      return;
  }
}

}  // namespace unifab
