#include "src/core/arbiter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

namespace unifab {

void ArbiterStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "queries", [this] { return queries; });
  group.AddCounterFn(prefix + "reservations", [this] { return reservations; });
  group.AddCounterFn(prefix + "releases", [this] { return releases; });
  group.AddCounterFn(prefix + "rejections", [this] { return rejections; });
  group.AddCounterFn(prefix + "expirations", [this] { return expirations; });
}

void ArbiterQosStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  for (int c = 0; c < kNumQosClasses; ++c) {
    group.AddCounterFn(prefix + "grants_" + QosClassName(static_cast<QosClass>(c)),
                       [this, c] { return grants[c]; });
  }
  group.AddCounterFn(prefix + "preemptions", [this] { return preemptions; });
  group.AddGaugeFn(prefix + "preempted_mbps", [this] { return preempted_mbps; });
  group.AddCounterFn(prefix + "budget_clamps", [this] { return budget_clamps; });
}

FabricArbiter::FabricArbiter(Engine* engine, const ArbiterConfig& config,
                             MessageDispatcher* dispatcher)
    : engine_(engine), config_(config), dispatcher_(dispatcher) {
  dispatcher_->RegisterService(kSvcArbiter,
                               [this](const FabricMessage& msg) { HandleMessage(msg); });
  metrics_ = MetricGroup(&engine_->metrics(), "core/arbiter");
  stats_.BindTo(metrics_);
  qos_metrics_ = MetricGroup(&engine_->metrics(), "core/arbiter/qos");
  qos_stats_.BindTo(qos_metrics_);
  audit_ = AuditScope(&engine_->audit(), "core/arbiter");
  // The incrementally maintained reserved_cache must agree with the O(n)
  // recompute; a divergence means a lease mutation path forgot (or double-
  // applied) its accounting — exactly the class of bug PR 3 fixed by hand.
  audit_.AddCheck("reserved_accounting", [this]() -> std::string {
    for (const auto& [node, res] : resources_) {
      const double recomputed = res.Reserved();
      const double eps = 1e-6 * std::max(1.0, std::abs(recomputed));
      if (std::abs(res.reserved_cache - recomputed) > eps) {
        return "resource " + std::to_string(node) + ": incremental reserved " +
               std::to_string(res.reserved_cache) + " != recomputed " +
               std::to_string(recomputed);
      }
    }
    return {};
  });
  // Same cross-check for the per-class shadow sums behind the QoS metrics.
  audit_.AddCheck("qos/class_accounting", [this]() -> std::string {
    for (const auto& [node, res] : resources_) {
      for (int c = 0; c < kNumQosClasses; ++c) {
        const double recomputed = res.ReservedInClass(static_cast<QosClass>(c));
        const double eps = 1e-6 * std::max(1.0, std::abs(recomputed));
        if (std::abs(res.class_reserved_cache[c] - recomputed) > eps) {
          return "resource " + std::to_string(node) + " class " +
                 QosClassName(static_cast<QosClass>(c)) + ": incremental reserved " +
                 std::to_string(res.class_reserved_cache[c]) + " != recomputed " +
                 std::to_string(recomputed);
        }
      }
    }
    return {};
  });
  // Per-tenant granted bandwidth is conserved: the incremental per-tenant
  // shadow map must match a recompute over the lease table (union of keys;
  // a missing entry reads as zero).
  audit_.AddCheck("qos/tenant_accounting", [this]() -> std::string {
    for (const auto& [node, res] : resources_) {
      std::map<std::uint32_t, double> recomputed;
      for (const auto& [key, lease] : res.leases) {
        recomputed[key.tenant] += lease.mbps;
      }
      auto mismatch = [&](std::uint32_t tenant, double cached,
                          double actual) -> std::string {
        const double eps = 1e-6 * std::max(1.0, std::abs(actual));
        if (std::abs(cached - actual) > eps) {
          return "resource " + std::to_string(node) + " tenant " + std::to_string(tenant) +
                 ": incremental reserved " + std::to_string(cached) + " != recomputed " +
                 std::to_string(actual);
        }
        return {};
      };
      for (const auto& [tenant, cached] : res.tenant_reserved_cache) {
        auto it = recomputed.find(tenant);
        if (auto err = mismatch(tenant, cached, it == recomputed.end() ? 0.0 : it->second);
            !err.empty()) {
          return err;
        }
      }
      for (const auto& [tenant, actual] : recomputed) {
        auto it = res.tenant_reserved_cache.find(tenant);
        if (auto err = mismatch(tenant, it == res.tenant_reserved_cache.end() ? 0.0 : it->second,
                                actual);
            !err.empty()) {
          return err;
        }
      }
    }
    return {};
  });
  // A tenant's granted bandwidth within a class never exceeds that class's
  // per-tenant budget: every grant is clamped to the budget headroom at
  // decision time and leases only shrink afterwards.
  audit_.AddCheck("qos/tenant_budget_ceiling", [this]() -> std::string {
    for (const auto& [node, res] : resources_) {
      std::map<std::pair<std::uint32_t, int>, double> sums;
      for (const auto& [key, lease] : res.leases) {
        sums[{key.tenant, static_cast<int>(lease.qos)}] += lease.mbps;
      }
      for (const auto& [tc, sum] : sums) {
        const double budget = config_.qos[tc.second].tenant_budget_mbps;
        if (budget > 0.0 && sum > budget + 1e-6 * std::max(1.0, budget)) {
          return "resource " + std::to_string(node) + " tenant " + std::to_string(tc.first) +
                 " class " + QosClassName(static_cast<QosClass>(tc.second)) + ": reserved " +
                 std::to_string(sum) + " mbps exceeds tenant budget " + std::to_string(budget);
        }
      }
    }
    return {};
  });
  // Every lease is positive, within capacity, and inside its lifetime
  // window (no lease may claim to expire further out than one full
  // lease_duration from now — that would mean a stale expiry computation).
  audit_.AddCheck("lease_sanity", [this]() -> std::string {
    const Tick now = engine_->Now();
    for (const auto& [node, res] : resources_) {
      for (const auto& [key, lease] : res.leases) {
        const double eps = 1e-6 * std::max(1.0, res.capacity_mbps);
        if (lease.mbps <= 0.0 || lease.mbps > res.capacity_mbps + eps) {
          return "resource " + std::to_string(node) + " holder " + std::to_string(key.holder) +
                 ": lease of " + std::to_string(lease.mbps) + " mbps outside (0, capacity=" +
                 std::to_string(res.capacity_mbps) + "]";
        }
        if (lease.expires_at > now + config_.lease_duration) {
          return "resource " + std::to_string(node) + " holder " + std::to_string(key.holder) +
                 ": lease expires at " + std::to_string(lease.expires_at) +
                 "ps, beyond now + lease_duration";
        }
      }
    }
    return {};
  });
  // Work-conserving max-min deliberately overcommits transiently (a new
  // flow always gets its fair share even when earlier flows hold over-share
  // leases), but the total is provably bounded by the per-class harmonic
  // sum: within class c a fair-share grant never exceeds capacity / i for
  // the i-th concurrent class flow (the class entitlement is <= capacity),
  // so class c contributes at most capacity * H(n_c). With a single active
  // class this is exactly the legacy capacity * H(n) bound. Anything above
  // is an accounting bug, not fair-share overcommit.
  audit_.AddCheck("maxmin_capacity_bound", [this]() -> std::string {
    for (const auto& [node, res] : resources_) {
      std::size_t class_count[kNumQosClasses] = {0, 0, 0};
      for (const auto& [key, lease] : res.leases) {
        ++class_count[static_cast<int>(lease.qos)];
      }
      double bound = 0.0;
      for (std::size_t n : class_count) {
        double harmonic = 0.0;
        for (std::size_t i = 1; i <= n; ++i) {
          harmonic += 1.0 / static_cast<double>(i);
        }
        bound += res.capacity_mbps * harmonic;
      }
      const double reserved = res.Reserved();
      if (reserved > bound + 1e-6 * std::max(1.0, bound)) {
        return "resource " + std::to_string(node) + ": reserved " + std::to_string(reserved) +
               " mbps exceeds the per-class harmonic bound " + std::to_string(bound) + " over " +
               std::to_string(res.leases.size()) + " leases";
      }
    }
    return {};
  });
}

void FabricArbiter::RegisterResource(PbrId node, double capacity_mbps) {
  resources_[node].capacity_mbps = capacity_mbps;
}

double FabricArbiter::ReservedOf(PbrId node) const {
  auto it = resources_.find(node);
  return it == resources_.end() ? 0.0 : it->second.Reserved();
}

double FabricArbiter::TenantReservedOf(PbrId node, std::uint32_t tenant) const {
  auto it = resources_.find(node);
  return it == resources_.end() ? 0.0 : it->second.ReservedByTenant(tenant);
}

void FabricArbiter::Credit(Resource& res, const Lease& lease, double delta) {
  res.reserved_cache += delta;
  res.class_reserved_cache[static_cast<int>(lease.qos)] += delta;
  res.tenant_reserved_cache[lease.tenant] += delta;
}

void FabricArbiter::EraseLease(Resource& res, std::map<FlowKey, Lease>::iterator it) {
  Credit(res, it->second, -it->second.mbps);
  res.leases.erase(it);
  if (res.leases.empty()) {
    // Re-anchor: no leases means exactly zero everywhere (no float dust).
    res.reserved_cache = 0.0;
    for (double& c : res.class_reserved_cache) {
      c = 0.0;
    }
    res.tenant_reserved_cache.clear();
  }
}

void FabricArbiter::ExpireLeases(Resource& res) {
  const Tick now = engine_->Now();
  for (auto it = res.leases.begin(); it != res.leases.end();) {
    if (it->second.expires_at <= now) {
      ++stats_.expirations;
      auto next = std::next(it);
      EraseLease(res, it);
      it = next;
    } else {
      ++it;
    }
  }
}

void FabricArbiter::PreemptBestEffort(Resource& res, const FlowKey& requester, double want) {
  const double need = std::min(want, res.capacity_mbps);
  double others = 0.0;
  for (const auto& [key, lease] : res.leases) {
    if (!(key == requester)) {
      others += lease.mbps;
    }
  }
  while (res.capacity_mbps - others < need) {
    // Deterministic victim selection: the largest best-effort lease, first
    // in key order among equals. The requester is guaranteed-class, so it
    // can never pick itself.
    auto victim = res.leases.end();
    for (auto it = res.leases.begin(); it != res.leases.end(); ++it) {
      if (it->second.qos != QosClass::kBestEffort || it->first == requester) {
        continue;
      }
      if (victim == res.leases.end() || it->second.mbps > victim->second.mbps) {
        victim = it;
      }
    }
    if (victim == res.leases.end()) {
      break;  // nothing evictable left; the grant falls back to fair share
    }
    ++qos_stats_.preemptions;
    qos_stats_.preempted_mbps += victim->second.mbps;
    others -= victim->second.mbps;
    EraseLease(res, victim);
  }
}

double FabricArbiter::FairGrant(Resource& res, const FlowKey& flow, QosClass qos, double want) {
  // Weighted max-min: the requester's class is entitled to capacity scaled
  // by its weight over the weights of all *active* classes, split evenly
  // across the class's flows. The requester may take more if capacity is
  // otherwise uncommitted (work-conserving), and never less than its fair
  // share — existing over-share leases will shrink when they renew. With a
  // single active class this reduces to plain max-min over all flows.
  bool class_active[kNumQosClasses] = {false, false, false};
  class_active[static_cast<int>(qos)] = true;
  std::size_t class_flows = 1;  // the requester itself
  double reserved_by_others = 0.0;
  double tenant_reserved = 0.0;  // same tenant + class, other flows
  for (const auto& [key, lease] : res.leases) {
    class_active[static_cast<int>(lease.qos)] = true;
    if (key == flow) {
      continue;
    }
    reserved_by_others += lease.mbps;
    if (lease.qos == qos) {
      ++class_flows;
      if (key.tenant == flow.tenant) {
        tenant_reserved += lease.mbps;
      }
    }
  }
  double weight_sum = 0.0;
  for (int c = 0; c < kNumQosClasses; ++c) {
    if (class_active[c]) {
      weight_sum += config_.qos[c].weight;
    }
  }
  const double entitlement =
      res.capacity_mbps * config_.qos[static_cast<int>(qos)].weight / weight_sum;
  const double fair_share = entitlement / static_cast<double>(class_flows);
  const double uncommitted = std::max(0.0, res.capacity_mbps - reserved_by_others);
  double grant = std::min(want, std::max(uncommitted, fair_share));
  // Tenant credit budget: a tenant's concurrent grants within a class are
  // capped per resource; the headroom excludes the flow's own lease (a
  // renewal replaces it wholesale).
  const double budget = config_.qos[static_cast<int>(qos)].tenant_budget_mbps;
  if (budget > 0.0 && grant > budget - tenant_reserved) {
    grant = std::max(0.0, budget - tenant_reserved);
    ++qos_stats_.budget_clamps;
  }
  return grant;
}

void FabricArbiter::HandleMessage(const FabricMessage& msg) {
  const auto req = std::static_pointer_cast<ArbiterMsg>(msg.body);
  assert(req != nullptr);
  engine_->Schedule(config_.decision_latency, [this, m = *req, src = msg.src] {
    auto it = resources_.find(m.resource);
    if (it == resources_.end()) {
      ArbiterMsg resp = m;
      resp.kind = m.kind == ArbiterMsg::Kind::kQuery ? ArbiterMsg::Kind::kQueryResp
                                                     : ArbiterMsg::Kind::kGrant;
      resp.mbps = 0.0;
      resp.available_mbps = 0.0;
      ++stats_.rejections;
      Reply(src, resp);
      return;
    }
    Resource& res = it->second;
    ExpireLeases(res);

    switch (m.kind) {
      case ArbiterMsg::Kind::kQuery: {
        ++stats_.queries;
        ArbiterMsg resp = m;
        resp.kind = ArbiterMsg::Kind::kQueryResp;
        resp.available_mbps = std::max(0.0, res.capacity_mbps - res.Reserved());
        Reply(src, resp);
        return;
      }
      case ArbiterMsg::Kind::kReserve: {
        ++stats_.reservations;
        const FlowKey flow{src, m.tenant};
        if (m.qos == QosClass::kGuaranteed) {
          // A guaranteed request must not starve behind a committed pool:
          // evict best-effort leases first so the grant below is real
          // capacity, not transient overcommit.
          PreemptBestEffort(res, flow, m.mbps);
        }
        const double granted = FairGrant(res, flow, m.qos, m.mbps);
        auto existing = res.leases.find(flow);
        if (existing != res.leases.end()) {
          // A renewal replaces the lease wholesale (its class may change).
          // A renewal squeezed to nothing loses its old allocation too:
          // "over-share leases shrink when they renew". Leaving the stale
          // lease in place would double-count the holder's bandwidth in
          // every kQuery/FairGrant until it expired on its own.
          EraseLease(res, existing);
        }
        if (granted <= 0.0) {
          ++stats_.rejections;
        } else {
          const Lease lease{src, m.tenant, m.qos, granted,
                            engine_->Now() + config_.lease_duration};
          res.leases.emplace(flow, lease);
          Credit(res, lease, granted);
          ++qos_stats_.grants[static_cast<int>(m.qos)];
        }
        ArbiterMsg resp = m;
        resp.kind = ArbiterMsg::Kind::kGrant;
        resp.mbps = granted;
        Reply(src, resp);
        return;
      }
      case ArbiterMsg::Kind::kRelease: {
        ++stats_.releases;
        auto lease = res.leases.find(FlowKey{src, m.tenant});
        if (lease != res.leases.end()) {
          if (lease->second.mbps - m.mbps <= 0.0) {
            EraseLease(res, lease);
          } else {
            lease->second.mbps -= m.mbps;
            Credit(res, lease->second, -m.mbps);
          }
        }
        return;  // releases are not acknowledged
      }
      default:
        return;
    }
  });
}

void FabricArbiter::Reply(PbrId dst, const ArbiterMsg& msg) {
  dispatcher_->adapter()->SendMessage(dst, Channel::kControl, Opcode::kCreditGrant,
                                      MakeTag(kSvcArbiter, msg.request_id),
                                      config_.ctrl_msg_bytes,
                                      std::make_shared<ArbiterMsg>(msg));
}

void ArbiterClientStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "requests", [this] { return requests; });
  group.AddCounterFn(prefix + "replies", [this] { return replies; });
  group.AddCounterFn(prefix + "timeouts", [this] { return timeouts; });
  group.AddCounterFn(prefix + "late_grants", [this] { return late_grants; });
}

ArbiterClient::ArbiterClient(Engine* engine, const ArbiterConfig& config,
                             MessageDispatcher* dispatcher, PbrId arbiter_node)
    : engine_(engine), config_(config), dispatcher_(dispatcher), arbiter_node_(arbiter_node) {
  assert(config_.request_timeout > 0 && "every arbiter request needs a reply deadline");
  dispatcher_->RegisterService(kSvcArbiter,
                               [this](const FabricMessage& msg) { HandleMessage(msg); });
  metrics_ = MetricGroup(&engine_->metrics(),
                         "core/arbiter/client/" + dispatcher_->adapter()->name());
  stats_.BindTo(metrics_);
}

void ArbiterClient::Send(ArbiterMsg msg) {
  dispatcher_->adapter()->SendMessage(arbiter_node_, Channel::kControl, Opcode::kCreditQuery,
                                      MakeTag(kSvcArbiter, msg.request_id),
                                      config_.ctrl_msg_bytes,
                                      std::make_shared<ArbiterMsg>(msg));
}

// Registers the callback and arms the request deadline. If no reply lands
// before it fires, the callback runs with 0 granted — the same shape as an
// arbiter rejection, which callers already handle with backoff/retry.
void ArbiterClient::Track(std::uint64_t request_id, std::function<void(double)> cb) {
  ++stats_.requests;
  Pending pending;
  pending.cb = std::move(cb);
  pending.deadline = engine_->Schedule(config_.request_timeout, [this, request_id] {
    auto it = callbacks_.find(request_id);
    if (it == callbacks_.end()) {
      return;
    }
    auto cb2 = std::move(it->second.cb);
    callbacks_.erase(it);
    ++stats_.timeouts;
    if (cb2) {
      cb2(0.0);
    }
  });
  callbacks_[request_id] = std::move(pending);
}

void ArbiterClient::Reserve(PbrId resource, double mbps, std::function<void(double)> cb) {
  Reserve(resource, mbps, 0, QosClass::kBestEffort, std::move(cb));
}

void ArbiterClient::Reserve(PbrId resource, double mbps, std::uint32_t tenant, QosClass qos,
                            std::function<void(double)> cb) {
  ArbiterMsg msg;
  msg.kind = ArbiterMsg::Kind::kReserve;
  msg.request_id = next_request_++;
  msg.resource = resource;
  msg.mbps = mbps;
  msg.tenant = tenant;
  msg.qos = qos;
  Track(msg.request_id, std::move(cb));
  Send(msg);
}

void ArbiterClient::Release(PbrId resource, double mbps) {
  Release(resource, mbps, 0, QosClass::kBestEffort);
}

void ArbiterClient::Release(PbrId resource, double mbps, std::uint32_t tenant, QosClass qos) {
  ArbiterMsg msg;
  msg.kind = ArbiterMsg::Kind::kRelease;
  msg.request_id = next_request_++;
  msg.resource = resource;
  msg.mbps = mbps;
  msg.tenant = tenant;
  msg.qos = qos;
  Send(msg);
}

void ArbiterClient::Query(PbrId resource, std::function<void(double)> cb) {
  ArbiterMsg msg;
  msg.kind = ArbiterMsg::Kind::kQuery;
  msg.request_id = next_request_++;
  msg.resource = resource;
  Track(msg.request_id, std::move(cb));
  Send(msg);
}

void ArbiterClient::HandleMessage(const FabricMessage& msg) {
  const auto resp = std::static_pointer_cast<ArbiterMsg>(msg.body);
  assert(resp != nullptr);
  auto it = callbacks_.find(resp->request_id);
  if (it == callbacks_.end()) {
    // The reply raced the request deadline: the caller was already told 0
    // granted and will never release this lease, so hand a late grant back
    // immediately instead of letting the reserved bandwidth leak until the
    // lease expires on its own.
    if (resp->kind == ArbiterMsg::Kind::kGrant && resp->mbps > 0.0) {
      ++stats_.late_grants;
      Release(resp->resource, resp->mbps, resp->tenant, resp->qos);
    }
    return;
  }
  auto cb = std::move(it->second.cb);
  if (it->second.deadline != kInvalidEventId) {
    engine_->Cancel(it->second.deadline);
  }
  callbacks_.erase(it);
  ++stats_.replies;
  if (cb) {
    cb(resp->kind == ArbiterMsg::Kind::kQueryResp ? resp->available_mbps : resp->mbps);
  }
}

}  // namespace unifab
