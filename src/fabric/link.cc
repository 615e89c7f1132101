#include "src/fabric/link.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace unifab {

bool LinkEndpoint::Send(const Flit& flit) { return link_->Send(side_, flit); }

bool LinkEndpoint::CanSend(Channel channel) const { return link_->CanSend(side_, channel); }

void LinkEndpoint::ReturnCredit(Channel channel) { link_->ReturnCredit(side_, channel); }

void LinkEndpoint::Bind(FlitReceiver* receiver, int port) {
  // This endpoint belongs to the component on side_; flits *sent by the
  // other side* are delivered to it.
  Link::Direction& dir = link_->dirs_[1 - side_];
  dir.receiver = receiver;
  dir.receiver_port = port;
}

void LinkEndpoint::SetDrainCallback(std::function<void()> cb) {
  link_->dirs_[side_].drain_cb = std::move(cb);
}

std::uint32_t LinkEndpoint::CreditsAvailable(Channel channel) const {
  return link_->dirs_[side_].credits[static_cast<int>(channel)];
}

std::size_t LinkEndpoint::QueueDepth(Channel channel) const {
  return link_->dirs_[side_].tx_queues[static_cast<int>(channel)].size();
}

const LinkStats& LinkEndpoint::stats() const { return link_->dirs_[side_].stats; }

const LinkConfig& LinkEndpoint::config() const { return link_->config_; }

FlitReceiver* LinkEndpoint::receiver() const { return link_->dirs_[1 - side_].receiver; }

int LinkEndpoint::port() const { return link_->dirs_[1 - side_].receiver_port; }

void LinkStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "flits_accepted", [this] { return flits_accepted; });
  group.AddCounterFn(prefix + "flits_sent", [this] { return flits_sent; });
  group.AddCounterFn(prefix + "flits_delivered", [this] { return flits_delivered; });
  group.AddCounterFn(prefix + "bytes_delivered", [this] { return bytes_delivered; });
  group.AddCounterFn(prefix + "replays", [this] { return replays; });
  group.AddCounterFn(prefix + "dropped_on_fail", [this] { return dropped_on_fail; });
  group.AddCounterFn(prefix + "credit_stalls", [this] { return credit_stalls; });
  group.AddGaugeFn(prefix + "busy_time_ns", [this] { return ToNs(busy_time); });
}

Link::Link(Engine* engine, const LinkConfig& config, std::uint64_t seed, std::string name)
    : engine_(engine),
      side_eng_{engine, engine},
      config_(config),
      name_(std::move(name)),
      dir_rng_{Rng(seed), Rng(seed ^ 0x9E3779B97F4A7C15ULL)} {
  advertised_credits_ = static_cast<std::uint32_t>(
      std::llround(static_cast<double>(config_.credits_per_vc) * config_.credit_overcommit));
  if (advertised_credits_ == 0) {
    // A pool whose credit math rounds to zero can never move a flit.
    // Silently granting one credit here (the old behavior) fabricated a
    // receiver buffer slot that violates per-VC credit conservation; such a
    // config is a caller error, so reject it loudly even in release builds.
    std::fprintf(stderr,
                 "[unifab] link %s: credits_per_vc=%u x credit_overcommit=%g rounds to zero "
                 "advertised credits; rejecting config\n",
                 name_.c_str(), config_.credits_per_vc, config_.credit_overcommit);
    std::abort();
  }
  for (auto& dir : dirs_) {
    dir.credits.fill(advertised_credits_);
  }
  metrics_ = MetricGroup(&engine_->metrics(), "fabric/link/" + name_);
  dirs_[0].stats.BindTo(metrics_, "tx0/");
  dirs_[1].stats.BindTo(metrics_, "tx1/");
  audit_ = AuditScope(&engine_->audit(), "fabric/link/" + name_);
  // Every flit accepted by Send() is, at any event boundary, exactly one of:
  // delivered, dropped by Fail(), in flight on the wire (or awaiting
  // replay), or still staged in a tx queue.
  audit_.AddCheck("flit_conservation", [this]() -> std::string {
    for (int s = 0; s < 2; ++s) {
      const Direction& dir = dirs_[s];
      std::uint64_t queued = 0;
      for (const auto& q : dir.tx_queues) {
        queued += q.size();
      }
      const std::uint64_t accounted =
          dir.stats.flits_delivered + dir.stats.dropped_on_fail + dir.in_flight + queued;
      if (dir.stats.flits_accepted != accounted) {
        return "dir" + std::to_string(s) + ": accepted=" +
               std::to_string(dir.stats.flits_accepted) + " != delivered(" +
               std::to_string(dir.stats.flits_delivered) + ") + dropped(" +
               std::to_string(dir.stats.dropped_on_fail) + ") + in_flight(" +
               std::to_string(dir.in_flight) + ") + queued(" + std::to_string(queued) + ")";
      }
    }
    return {};
  });
  // Credits model receiver buffer slots: the sender can never hold more
  // than the receiver advertised (an excess would mean a fabricated slot or
  // an underflowed decrement wrapping around).
  audit_.AddCheck("credit_conservation", [this]() -> std::string {
    for (int s = 0; s < 2; ++s) {
      for (int vc = 0; vc < kNumChannels; ++vc) {
        const std::uint32_t have = dirs_[s].credits[static_cast<std::size_t>(vc)];
        if (have > advertised_credits_) {
          return "dir" + std::to_string(s) + " vc" + std::to_string(vc) + ": credits=" +
                 std::to_string(have) + " > advertised=" + std::to_string(advertised_credits_);
        }
      }
    }
    return {};
  });
}

bool Link::CanSend(int side, Channel channel) const {
  const Direction& dir = dirs_[side];
  return dir.tx_queues[static_cast<int>(channel)].size() < config_.tx_queue_depth;
}

bool Link::Send(int side, const Flit& flit) {
  if (failed_) {
    return false;
  }
  Direction& dir = dirs_[side];
  auto& q = dir.tx_queues[static_cast<int>(flit.channel)];
  if (q.size() >= config_.tx_queue_depth) {
    return false;
  }
  q.push_back(flit);
  ++dir.stats.flits_accepted;
  TryTransmit(side);
  return true;
}

int Link::PickVc(const Direction& dir) const {
  // Strict priority for the dedicated control lane when configured.
  if (config_.control_priority) {
    const int ctrl = static_cast<int>(Channel::kControl);
    if (!dir.tx_queues[ctrl].empty() && dir.credits[ctrl] > 0) {
      return ctrl;
    }
  }
  // Round-robin across remaining VCs that have both a flit and a credit.
  for (int i = 0; i < kNumChannels; ++i) {
    const int vc = (dir.rr_next_vc + i) % kNumChannels;
    if (!dir.tx_queues[vc].empty() && dir.credits[vc] > 0) {
      return vc;
    }
  }
  return -1;
}

void Link::TryTransmit(int side) {
  Direction& dir = dirs_[side];
  if (failed_ || dir.wire_busy) {
    return;
  }
  int vc = PickVc(dir);
  if (vc < 0) {
    // Record a stall only if a flit was waiting without credits.
    for (int i = 0; i < kNumChannels; ++i) {
      if (!dir.tx_queues[i].empty()) {
        ++dir.stats.credit_stalls;
        break;
      }
    }
    return;
  }

  // Batch service: commit a train of up to max_burst_flits back-to-back
  // flits in one wakeup. Flit k occupies the wire over
  // [t0 + k*serialize, t0 + (k+1)*serialize) — exactly the schedule per-flit
  // service would produce for a backlogged sender — so delivery and replay
  // times are unchanged; the train just replaces per-flit wire-free events
  // with a single end-of-train event.
  const Tick serialize = config_.SerializeTime();
  const std::uint64_t epoch = epoch_;
  const std::uint32_t max_burst = config_.max_burst_flits == 0 ? 1 : config_.max_burst_flits;
  Engine* tx_eng = eng(side);  // everything sender-side stays on this engine

  dir.train.clear();
  while (vc >= 0) {
    auto& q = dir.tx_queues[vc];
    dir.train.emplace_back(std::move(q.front()),
                           dir_rng_[side].NextBool(config_.flit_error_rate));
    q.pop_front();
    --dir.credits[vc];
    ++dir.in_flight;
    ++dir.stats.flits_sent;
    dir.stats.busy_time += serialize;
    if (dir.train.size() >= max_burst) {
      break;
    }
    vc = PickVc(dir);
  }

  // Wire frees when the train ends. Scheduled before the per-flit events so
  // same-tick coincidences order exactly as per-flit service did. Everything
  // in flight dies if the link fails first.
  dir.wire_busy = true;
  tx_eng->Schedule(serialize * dir.train.size(), [this, side, epoch] {
    if (epoch != epoch_) {
      return;
    }
    dirs_[side].wire_busy = false;
    TryTransmit(side);
    NotifyDrain(side);
  });

  const bool cross = cross_engine();
  Tick offset = 0;
  for (auto& [flit, corrupted] : dir.train) {
    if (corrupted) {
      // Receiver naks; sender replays the flit from its replay buffer after
      // the timeout. The consumed credit stays consumed (the receiver slot
      // is reserved for the replayed copy).
      ++dir.stats.replays;
      tx_eng->Schedule(offset + serialize + config_.replay_timeout,
                       [this, side, flit = std::move(flit), epoch] {
                         if (epoch != epoch_) {
                           return;
                         }
                         Direction& d = dirs_[side];
                         // Replay bypasses the credit gate: the slot is
                         // already reserved.
                         d.tx_queues[static_cast<int>(flit.channel)].push_front(flit);
                         ++d.credits[static_cast<int>(flit.channel)];
                         --d.in_flight;  // back in the tx queue until retransmitted
                         TryTransmit(side);
                       });
    } else if (!cross) {
      tx_eng->Schedule(offset + serialize + config_.propagation,
                       [this, side, flit = std::move(flit), epoch]() mutable {
                         if (epoch != epoch_) {
                           return;
                         }
                         Direction& dir2 = dirs_[side];
                         --dir2.in_flight;
                         ++dir2.stats.flits_delivered;
                         dir2.stats.bytes_delivered += flit.payload_bytes;
                         assert(dir2.receiver != nullptr && "link endpoint not bound");
                         ++flit.hops;
                         dir2.receiver->ReceiveFlit(flit, dir2.receiver_port);
                       });
    } else {
      // Domain boundary: split the delivery. The sender's accounting fires
      // on the sender engine; the hand-off to the receiving component fires
      // at the same tick on the receiver engine (routed through the
      // cross-shard mailbox and merged in canonical order at the barrier —
      // delivery takes >= serialize + propagation, which bounds the
      // lookahead window, so the event always lands in a later window).
      const Tick deliver_at = tx_eng->Now() + offset + serialize + config_.propagation;
      tx_eng->ScheduleAt(deliver_at, [this, side, bytes = flit.payload_bytes, epoch] {
        if (epoch != epoch_) {
          return;
        }
        Direction& dir2 = dirs_[side];
        --dir2.in_flight;
        ++dir2.stats.flits_delivered;
        dir2.stats.bytes_delivered += bytes;
      });
      eng(1 - side)->ScheduleAt(deliver_at, [this, side, flit = std::move(flit),
                                             epoch]() mutable {
        if (epoch != epoch_) {
          return;
        }
        Direction& dir2 = dirs_[side];
        assert(dir2.receiver != nullptr && "link endpoint not bound");
        ++flit.hops;
        dir2.receiver->ReceiveFlit(flit, dir2.receiver_port);
      });
    }
    offset += serialize;
  }
  dir.train.clear();
}

void Link::ReturnCredit(int receiver_side, Channel channel) {
  // The receiver on `receiver_side` frees a slot; the credit travels back to
  // the sender on the other side. Credits freed at the same tick coalesce
  // into one scheduled flush (they'd all land at the same instant anyway),
  // at the first return's position in the tick's FIFO order.
  const int sender_side = 1 - receiver_side;
  if (cross_engine()) {
    // Domain boundary: the sender's credit pool belongs to the other
    // shard, so the return rides the cross-shard mailbox as one event per
    // credit (credit_return_latency >= the lookahead window, so it lands
    // in a later window). No coalescing batch is kept on this side — the
    // sender-side event is self-contained.
    const std::uint64_t epoch = epoch_;
    eng(sender_side)
        ->ScheduleAt(eng(receiver_side)->Now() + config_.credit_return_latency,
                     [this, sender_side, channel, epoch] {
                       if (epoch != epoch_) {
                         return;
                       }
                       Direction& d = dirs_[sender_side];
                       auto& credits = d.credits[static_cast<int>(channel)];
                       // Cap as below: a stale return across Fail/Recover
                       // cannot mint slots beyond what the receiver has.
                       if (credits < advertised_credits_) {
                         ++credits;
                       }
                       TryTransmit(sender_side);
                       NotifyDrain(sender_side);
                     });
    return;
  }
  Direction& dir = dirs_[sender_side];
  auto& batches = dir.credit_returns[static_cast<int>(channel)];
  const Tick due = eng(sender_side)->Now() + config_.credit_return_latency;
  if (!batches.empty() && batches.back().due == due) {
    ++batches.back().count;
    return;
  }
  batches.push_back({due, 1});
  const std::uint64_t epoch = epoch_;
  eng(sender_side)->Schedule(config_.credit_return_latency, [this, sender_side, channel, epoch] {
    if (epoch != epoch_) {
      return;
    }
    Direction& d = dirs_[sender_side];
    auto& bq = d.credit_returns[static_cast<int>(channel)];
    assert(!bq.empty() && bq.front().due == eng(sender_side)->Now());
    d.credits[static_cast<int>(channel)] += bq.front().count;
    // A receiver that buffered a flit across a Fail/Recover cycle returns a
    // credit for a slot Recover() already re-advertised; cap the pool so a
    // stale return cannot mint slots beyond what the receiver has.
    if (d.credits[static_cast<int>(channel)] > advertised_credits_) {
      d.credits[static_cast<int>(channel)] = advertised_credits_;
    }
    bq.pop_front();
    TryTransmit(sender_side);
    NotifyDrain(sender_side);
  });
}

void Link::Fail() {
  if (Engine::InShardedWindow()) {
    // Failing a link mutates both directions and notifies components in
    // both domains; from inside a running window that would race with the
    // far shard. Re-run as a global barrier event at this same tick.
    Engine::CurrentShard()->ScheduleGlobal(0, [this] { Fail(); });
    return;
  }
  if (failed_) {
    return;
  }
  failed_ = true;
  ++epoch_;  // orphan in-flight deliveries, replays, and credit returns
  for (auto& dir : dirs_) {
    for (auto& q : dir.tx_queues) {
      dir.stats.dropped_on_fail += q.size();
      q.clear();
    }
    for (auto& bq : dir.credit_returns) {
      bq.clear();  // matching flush events just died with the epoch
    }
    dir.stats.dropped_on_fail += dir.in_flight;
    dir.in_flight = 0;
    dir.wire_busy = false;
  }
  NotifyEpochChange(/*link_up=*/false);
}

void Link::Recover() {
  if (Engine::InShardedWindow()) {
    Engine::CurrentShard()->ScheduleGlobal(0, [this] { Recover(); });
    return;
  }
  if (!failed_) {
    return;
  }
  failed_ = false;
  ++epoch_;
  // Same validated pool the constructor computed — Recover() used to repeat
  // the rounds-to-zero clamp and could re-fill a different credit count.
  for (auto& dir : dirs_) {
    dir.credits.fill(advertised_credits_);
    for (auto& bq : dir.credit_returns) {
      bq.clear();  // flushes scheduled while failed are orphaned by the bump
    }
  }
  NotifyEpochChange(/*link_up=*/true);
  // Wake both senders so any retained upper-layer egress drains again.
  NotifyDrain(0);
  NotifyDrain(1);
}

void Link::NotifyDrain(int side) {
  if (dirs_[side].drain_cb) {
    dirs_[side].drain_cb();
  }
}

Link::DirAccounting Link::Accounting(int sender_side) const {
  const Direction& dir = dirs_[sender_side];
  DirAccounting acc;
  acc.accepted = dir.stats.flits_accepted;
  acc.delivered = dir.stats.flits_delivered;
  acc.dropped_on_fail = dir.stats.dropped_on_fail;
  acc.in_flight = dir.in_flight;
  for (const auto& q : dir.tx_queues) {
    acc.queued += q.size();
  }
  return acc;
}

void Link::NotifyEpochChange(bool link_up) {
  // dirs_[s].receiver is the component on side 1-s, so this reaches both
  // attached components (when bound) with their own port index.
  for (auto& dir : dirs_) {
    if (dir.receiver != nullptr) {
      dir.receiver->OnLinkEpochChange(dir.receiver_port, link_up);
    }
  }
}

}  // namespace unifab
