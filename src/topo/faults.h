// Scripted fault-injection campaigns (FCC DP#3, the failure half).
//
// Composable infrastructures have passive failure domains: links flap,
// chassis lose power independently of every host. The FaultScheduler turns a
// small declarative plan into timed Fail()/Recover() calls against named
// targets and nudges the fabric manager to re-resolve routes after each
// transition, so recovery-path code (eTrans retries, iTask re-execution,
// heap rollback) can be exercised deterministically.
//
// Plan grammar (one directive per line or semicolon-separated; '#' starts a
// comment; times are microseconds of simulated time):
//
//   fail <target> @<us>
//   recover <target> @<us>
//   flap <target> start=<us> period=<us> down=<us> cycles=<n>
//
// `flap` expands at parse time into `cycles` fail/recover pairs: down at
// start + k*period, back up `down` microseconds later. Every number must be
// finite and fill its whole token; every resulting time must lie in
// [0, kMaxParsedUs], and `cycles` must be a whole number in [1, 10^6].

#ifndef SRC_TOPO_FAULTS_H_
#define SRC_TOPO_FAULTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fabric/interconnect.h"
#include "src/fabric/link.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/topo/chassis.h"

namespace unifab {

struct FaultEvent {
  enum class Kind { kFail, kRecover };
  Tick at = 0;
  Kind kind = Kind::kFail;
  std::string target;
};

// A parsed campaign: the flattened, time-ordered event list.
struct FaultPlan {
  std::vector<FaultEvent> events;
  std::vector<std::string> errors;  // one entry per unparsable directive

  bool ok() const { return errors.empty(); }

  static FaultPlan Parse(const std::string& text);
};

struct FaultSchedulerStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t unknown_targets = 0;  // plan events naming unregistered targets

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Binds plan target names to simulator components and drives a campaign.
class FaultScheduler {
 public:
  // `fabric` (optional) gets ConfigureRouting() after each transition, one
  // reroute_delay later — the fabric manager's detection latency.
  FaultScheduler(Engine* engine, FabricInterconnect* fabric);

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  // --- Target registration ---------------------------------------------

  void RegisterLink(const std::string& name, Link* link);
  // FAA chassis: failing the power domain kills the accelerator AND (when
  // given) the chassis uplink.
  void RegisterChassis(const std::string& name, FaaChassis* faa, Link* uplink = nullptr);
  // FAM chassis are CPU-less; their failure domain is the uplink itself.
  void RegisterChassis(const std::string& name, FamChassis* fam, Link* uplink);
  // Escape hatch for anything else.
  void RegisterTarget(const std::string& name, std::function<void()> fail,
                      std::function<void()> recover);

  // --- Campaign execution ----------------------------------------------

  // Schedules every event of `plan` onto the engine (absolute times).
  // Unknown targets are counted when their event fires, not at schedule
  // time, so a plan can be scheduled before all targets are registered.
  void Schedule(const FaultPlan& plan);

  void set_reroute_delay(Tick delay) { reroute_delay_ = delay; }
  const FaultSchedulerStats& stats() const { return stats_; }

 private:
  struct Target {
    std::function<void()> fail;
    std::function<void()> recover;
  };

  void Execute(const FaultEvent& event);
  void RequestReroute();

  Engine* engine_;
  FabricInterconnect* fabric_;
  Tick reroute_delay_ = FromUs(25.0);
  std::unordered_map<std::string, Target> targets_;
  FaultSchedulerStats stats_;
  MetricGroup metrics_;
};

}  // namespace unifab

#endif  // SRC_TOPO_FAULTS_H_
