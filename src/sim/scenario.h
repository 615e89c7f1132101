// Declarative multi-tenant scenario specs: campaigns are data, not code.
//
// A ScenarioSpec describes N tenants grouped into classes; each class has a
// QoS class, an open-loop arrival process, and a traffic mix over the
// runtime's primitives. Specs parse from a small line-oriented key/value
// DSL (FaultPlan's format family):
//
//   # tokens:  scenario <name> | seed <n> | horizon_us <f> | pods <n> |
//   #          class k=v ...
//   scenario mixed_1k
//   seed 42
//   horizon_us 4000
//   pods 2
//   class name=gold qos=guaranteed tenants=10 arrival=poisson rate_ops_s=2000 bytes=65536 request_mbps=4000 mix=etrans:4,heap_read:2,faa:1 slo_p99_us=900
//   class name=bronze qos=best_effort tenants=990 arrival=bursty burst=16 rate_ops_s=500 bytes=32768 mix=etrans:1
//
// Parsing never throws: diagnostics are collected in `errors` so campaign
// files can be validated up front (same discipline as FaultPlan::Parse).
// Numbers must be finite and fill their whole token; integers are unsigned,
// tenant and burst counts fit 32 bits (so does the total tenant count), and
// horizon_us lies in (0, kMaxParsedUs].

#ifndef SRC_SIM_SCENARIO_H_
#define SRC_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/qos.h"

namespace unifab {

// Open-loop arrival processes; "open-loop" means arrivals do not wait for
// completions, so overload shows up as queueing, not admission control.
enum class ArrivalKind : std::uint8_t {
  kPoisson,        // exponential inter-arrival at the class rate
  kDeterministic,  // fixed inter-arrival
  kBursty,         // `burst` back-to-back ops, then idle to hold the mean rate
};

// The primitives a tenant op can exercise (indices into TenantClassSpec::mix).
enum class TenantOp : std::uint8_t {
  kETrans = 0,       // bulk transfer host -> FAM via eTrans
  kHeapRead = 1,     // UnifiedHeap object read
  kHeapWrite = 2,    // UnifiedHeap object write
  kHeapMigrate = 3,  // UnifiedHeap tier migration
  kCollect = 4,      // small eCollect AllReduce across hosts
  kFaa = 5,          // idempotent task on a FAA chassis
};
inline constexpr int kNumTenantOps = 6;

const char* ArrivalKindName(ArrivalKind k);
const char* TenantOpName(TenantOp op);

// One class of identical tenants.
struct TenantClassSpec {
  std::string name;
  QosClass qos = QosClass::kBestEffort;
  std::uint32_t tenants = 1;
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate_ops_per_s = 100.0;  // mean per-tenant arrival rate
  std::uint32_t burst = 8;        // ops per burst (kBursty only)
  std::uint64_t bytes = 65536;    // payload per op (transfer/object size)
  double request_mbps = 2000.0;   // arbiter ask per throttled eTrans op
  double mix[kNumTenantOps] = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  double slo_p99_us = 0.0;  // per-class completion-latency SLO; 0 = none
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 42;
  double horizon_us = 1000.0;  // arrivals stop here; drains may run longer
  // Topology request: run the campaign on a pod cluster of this many pods
  // (0 = caller picks the topology; harnesses map >0 to DFabricPodCluster).
  std::uint32_t pods = 0;
  std::vector<TenantClassSpec> classes;
  // Parse diagnostics ("line N: message"); empty means the spec is valid.
  std::vector<std::string> errors;

  std::uint32_t TotalTenants() const;

  static ScenarioSpec Parse(const std::string& text);
  // Reads `path` and parses it; an unreadable file yields a spec whose
  // `errors` names the path (parsing never throws).
  static ScenarioSpec ParseFile(const std::string& path);
};

}  // namespace unifab

#endif  // SRC_SIM_SCENARIO_H_
