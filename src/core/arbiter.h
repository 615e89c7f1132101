// Central fabric arbiter over a dedicated control lane (FCC DP#4).
//
// One arbiter instance serves a fabric. Clients (hosts, FAAs, eTrans
// agents) reach it over the Channel::kControl virtual channel, which links
// serve with strict priority — the "dedicated lane" that keeps control RTT
// low even when data channels are saturated. The arbiter:
//   * tracks per-resource (destination node) bandwidth capacity;
//   * grants leases via max-min fair allocation across active flows, with
//     QoS-class weighting, per-tenant budgets, and guaranteed-class
//     preemption of best-effort leases (multi-tenant mode);
//   * exposes the programmable query/reserve/reclaim interface the paper
//     calls for, which eTrans uses to throttle bulk transfers;
//   * optionally programs switch arbitration priorities (arbiter-directed
//     flow scheduling) through the fabric manager's configuration plane.

#ifndef SRC_CORE_ARBITER_H_
#define SRC_CORE_ARBITER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/dispatch.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/qos.h"
#include "src/sim/stats.h"

namespace unifab {

// Wire format for arbiter control messages (rides Channel::kControl).
struct ArbiterMsg {
  enum class Kind : std::uint8_t { kQuery, kReserve, kRelease, kGrant, kQueryResp };
  Kind kind = Kind::kQuery;
  std::uint64_t request_id = 0;
  PbrId resource = kInvalidPbrId;  // destination node whose bandwidth is managed
  double mbps = 0.0;               // requested / granted / released bandwidth
  double available_mbps = 0.0;     // kQueryResp
  // Multi-tenant extension: the flow identity is (holder adapter, tenant).
  // Tenant 0 / kBestEffort are the single-tenant defaults, under which the
  // arbiter behaves exactly as before this field existed.
  std::uint32_t tenant = 0;
  QosClass qos = QosClass::kBestEffort;
};

// Per-QoS-class arbitration policy.
struct QosClassConfig {
  // Relative share of a resource's capacity when classes compete: a class's
  // entitlement is capacity * weight / (sum of weights of active classes).
  double weight = 1.0;
  // Per-tenant ceiling on granted bandwidth within this class on any one
  // resource (the "credit budget"). 0 disables the ceiling.
  double tenant_budget_mbps = 0.0;
};

struct ArbiterConfig {
  std::uint32_t ctrl_msg_bytes = 64;  // one flit
  Tick decision_latency = FromNs(40.0);
  Tick lease_duration = FromUs(100.0);  // grants expire unless renewed

  // Client-side deadline per Reserve/Query: if no reply arrives (arbiter
  // node dead, control path severed), the callback fires with 0 granted
  // instead of leaking forever. Must be > 0.
  Tick request_timeout = FromUs(500.0);

  // QoS policy, indexed by QosClass. The defaults leave single-class
  // (all-best-effort) workloads on the exact legacy max-min path.
  // A guaranteed-class Reserve evicts best-effort leases when the pool is
  // fully committed (counted under core/arbiter/qos/preemptions).
  QosClassConfig qos[kNumQosClasses] = {{8.0, 0.0}, {2.0, 0.0}, {1.0, 0.0}};
};

struct ArbiterStats {
  std::uint64_t queries = 0;
  std::uint64_t reservations = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejections = 0;   // zero-bandwidth grants
  std::uint64_t expirations = 0;  // leases reclaimed on expiry

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// QoS-path counters, published under core/arbiter/qos/*.
struct ArbiterQosStats {
  std::uint64_t grants[kNumQosClasses] = {0, 0, 0};  // positive grants per class
  std::uint64_t preemptions = 0;    // best-effort leases evicted for guaranteed
  double preempted_mbps = 0.0;      // bandwidth reclaimed by those evictions
  std::uint64_t budget_clamps = 0;  // grants clipped by a tenant budget

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Server side. Attach to a MessageDispatcher whose adapter sits on the
// fabric (the runtime provisions a dedicated lightweight adapter).
class FabricArbiter {
 public:
  FabricArbiter(Engine* engine, const ArbiterConfig& config, MessageDispatcher* dispatcher);

  // Declares a managed resource (typically a FAM/FAA node's ingress
  // bandwidth).
  void RegisterResource(PbrId node, double capacity_mbps);

  double ReservedOf(PbrId node) const;
  // Granted bandwidth currently leased to `tenant` on `node` (all classes).
  double TenantReservedOf(PbrId node, std::uint32_t tenant) const;
  const ArbiterStats& stats() const { return stats_; }
  const ArbiterQosStats& qos_stats() const { return qos_stats_; }
  PbrId fabric_id() const { return dispatcher_->adapter()->id(); }

 private:
  // A flow is one (holder adapter, tenant) pair: a host agent reserving on
  // behalf of two tenants holds two independent leases.
  struct FlowKey {
    PbrId holder;
    std::uint32_t tenant;
    bool operator<(const FlowKey& o) const {
      return holder != o.holder ? holder < o.holder : tenant < o.tenant;
    }
    bool operator==(const FlowKey& o) const {
      return holder == o.holder && tenant == o.tenant;
    }
  };

  struct Lease {
    PbrId holder;
    std::uint32_t tenant;
    QosClass qos;
    double mbps;
    Tick expires_at;
  };

  struct Resource {
    double capacity_mbps = 0.0;
    // flow (holder, tenant) -> lease; ordered so audits and preemption
    // victim selection iterate deterministically.
    std::map<FlowKey, Lease> leases;
    // Shadow accounting maintained incrementally at every lease mutation;
    // the auditor cross-checks each against the O(n) recomputes below. All
    // granting decisions still use the recomputes so behavior is unchanged.
    double reserved_cache = 0.0;
    double class_reserved_cache[kNumQosClasses] = {0.0, 0.0, 0.0};
    std::map<std::uint32_t, double> tenant_reserved_cache;
    double Reserved() const {
      double sum = 0.0;
      for (const auto& [k, l] : leases) {
        sum += l.mbps;
      }
      return sum;
    }
    double ReservedInClass(QosClass c) const {
      double sum = 0.0;
      for (const auto& [k, l] : leases) {
        if (l.qos == c) {
          sum += l.mbps;
        }
      }
      return sum;
    }
    double ReservedByTenant(std::uint32_t tenant) const {
      double sum = 0.0;
      for (const auto& [k, l] : leases) {
        if (k.tenant == tenant) {
          sum += l.mbps;
        }
      }
      return sum;
    }
  };

  void HandleMessage(const FabricMessage& msg);
  void ExpireLeases(Resource& res);
  // Applies a signed bandwidth delta for `lease` to every shadow cache.
  void Credit(Resource& res, const Lease& lease, double delta);
  // Removes `it`'s lease from `res`, keeping the shadow caches in sync.
  void EraseLease(Resource& res, std::map<FlowKey, Lease>::iterator it);
  // Evicts best-effort leases (largest first, then key order) until `want`
  // fits in uncommitted capacity or no victims remain.
  void PreemptBestEffort(Resource& res, const FlowKey& requester, double want);
  // Weighted max-min fair share for a new/renewing request of `want` from
  // `flow` in class `qos`; clips to the tenant budget when one is set.
  double FairGrant(Resource& res, const FlowKey& flow, QosClass qos, double want);
  void Reply(PbrId dst, const ArbiterMsg& msg);

  Engine* engine_;
  ArbiterConfig config_;
  MessageDispatcher* dispatcher_;
  std::unordered_map<PbrId, Resource> resources_;
  ArbiterStats stats_;
  ArbiterQosStats qos_stats_;
  MetricGroup metrics_;
  MetricGroup qos_metrics_;
  AuditScope audit_;  // after resources_: checks read the lease maps

  friend class AuditTestPeer;
};

struct ArbiterClientStats {
  std::uint64_t requests = 0;     // Reserve + Query sends
  std::uint64_t replies = 0;      // grants/query responses delivered in time
  std::uint64_t timeouts = 0;     // requests abandoned by the deadline
  std::uint64_t late_grants = 0;  // grants that arrived after the deadline
                                  // fired cb(0) — released back immediately

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Client side: issues control-lane requests and delivers async replies.
// Every request carries a deadline (ArbiterConfig::request_timeout): if the
// arbiter or the control path dies before replying, the callback fires with
// 0 granted rather than leaking in `callbacks_` forever. A grant that
// arrives after its deadline already fired is released straight back to the
// arbiter (the caller was told 0, so nobody would ever return that lease).
class ArbiterClient {
 public:
  ArbiterClient(Engine* engine, const ArbiterConfig& config, MessageDispatcher* dispatcher,
                PbrId arbiter_node);

  // Asks for `mbps` toward `resource`; `cb` receives the granted bandwidth
  // (possibly 0). The 3-arg form reserves as tenant 0 / best-effort.
  void Reserve(PbrId resource, double mbps, std::function<void(double granted)> cb);
  void Reserve(PbrId resource, double mbps, std::uint32_t tenant, QosClass qos,
               std::function<void(double granted)> cb);

  // Returns bandwidth early (otherwise the lease expires on its own).
  void Release(PbrId resource, double mbps);
  void Release(PbrId resource, double mbps, std::uint32_t tenant, QosClass qos);

  // Reads the resource's uncommitted capacity.
  void Query(PbrId resource, std::function<void(double available)> cb);

  // Lease lifetime agreed with the arbiter; holders renew at this cadence.
  Tick lease_duration() const { return config_.lease_duration; }

  std::uint64_t outstanding() const { return callbacks_.size(); }
  const ArbiterClientStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::function<void(double)> cb;
    EventId deadline = kInvalidEventId;
  };

  void HandleMessage(const FabricMessage& msg);
  void Send(ArbiterMsg msg);
  void Track(std::uint64_t request_id, std::function<void(double)> cb);

  Engine* engine_;
  ArbiterConfig config_;
  MessageDispatcher* dispatcher_;
  PbrId arbiter_node_;
  std::uint64_t next_request_ = 1;
  std::unordered_map<std::uint64_t, Pending> callbacks_;
  ArbiterClientStats stats_;
  MetricGroup metrics_;
};

}  // namespace unifab

#endif  // SRC_CORE_ARBITER_H_
