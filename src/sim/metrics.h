// Unified telemetry layer: a central registry of named instruments.
//
// Every simulated component registers its counters and latency summaries
// under a hierarchical path (e.g. "fabric/switch/s0/flits_forwarded",
// "core/etrans/agent/a3/job_latency_us") at construction time. The registry
// can then render one machine-readable JSON snapshot of the whole
// simulation for the BENCH_*.json perf trajectory, instead of each layer
// hand-rolling its own text dump.
//
// Every instrument is a live-value callback (Add*Fn) that reads a field of
// the component's `*Stats` struct at snapshot time, so the struct stays the
// one place a value is counted.
//
// Instruments registered through a MetricGroup are unregistered when the
// group (i.e. the owning component) is destroyed, so callbacks never
// outlive the state they read. Paths are uniquified deterministically
// ("path", "path#2", ...) so identically named components coexist.
//
// The registry itself is engine-agnostic; Engine owns one (Engine::metrics)
// and additionally exposes an optional EventTraceSink hook for per-event
// sim-time tracing (a single pointer test on the scheduling hot path).

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace unifab {

class MetricRegistry {
 public:
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;
  using SummaryFn = std::function<const Summary*()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Counters (monotonic counts), gauges (point-in-time scalars) and
  // summaries (sample distributions): `fn` is invoked at snapshot time. The
  // caller
  // must Remove() the path (MetricGroup does this automatically) before the
  // state the callback reads is destroyed. Returns the final path, which
  // may carry a "#n" suffix when the requested one was taken.
  std::string AddCounterFn(const std::string& path, CounterFn fn);
  std::string AddGaugeFn(const std::string& path, GaugeFn fn);
  std::string AddSummaryFn(const std::string& path, SummaryFn fn);

  bool Remove(const std::string& path);

  // Reserves a deterministic unique component prefix ("a", then "a#2", ...).
  std::string ClaimPrefix(const std::string& prefix);

  bool Has(const std::string& path) const { return instruments_.count(path) != 0; }

  // One flat JSON object keyed by path, sorted, with summaries expanded to
  // {"count":..,"sum":..,"mean":..,"min":..,"max":..,"p50":..,"p99":..}.
  // Key set and formatting are deterministic for a deterministic sim.
  std::string SnapshotJson() const;

 private:
  struct Instrument {
    enum class Kind { kCounter, kGauge, kSummary } kind;
    CounterFn counter;
    GaugeFn gauge;
    SummaryFn summary;
  };

  std::string Insert(const std::string& path, Instrument instrument);

  std::map<std::string, Instrument> instruments_;  // ordered => stable output
  std::unordered_map<std::string, int> prefix_claims_;
};

// RAII bundle of instruments under one component prefix. A component keeps
// one MetricGroup member (declared after its stats so destruction
// unregisters callbacks before the stats die) and registers all its
// instruments through it at construction. A default-constructed group is
// detached: registrations are no-ops, so components still work when no
// registry is supplied.
class MetricGroup {
 public:
  MetricGroup() = default;
  MetricGroup(MetricRegistry* registry, const std::string& prefix);
  ~MetricGroup() { RemoveAll(); }

  MetricGroup(MetricGroup&& other) noexcept { *this = std::move(other); }
  MetricGroup& operator=(MetricGroup&& other) noexcept;
  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  bool attached() const { return registry_ != nullptr; }
  // The claimed (uniquified) prefix; empty when detached.
  const std::string& prefix() const { return prefix_; }

  void AddCounterFn(const std::string& name, MetricRegistry::CounterFn fn);
  void AddGaugeFn(const std::string& name, MetricRegistry::GaugeFn fn);
  void AddSummaryFn(const std::string& name, MetricRegistry::SummaryFn fn);

  void RemoveAll();

 private:
  std::string Full(const std::string& name) const { return prefix_ + "/" + name; }

  MetricRegistry* registry_ = nullptr;
  std::string prefix_;
  std::vector<std::string> registered_;
};

// Observer of engine scheduling activity (per-event sim-time tracing). The
// engine holds a nullable pointer, so an unset sink costs one branch per
// Schedule/fire — cheap enough to leave compiled in.
class EventTraceSink {
 public:
  virtual ~EventTraceSink() = default;
  virtual void OnSchedule(Tick now, Tick fire_at, std::uint64_t event_id) = 0;
  virtual void OnFire(Tick fire_at, std::uint64_t event_id) = 0;
};

// Default sink: aggregates schedule/fire counts and queue-residency times,
// and keeps the first `capacity` raw records for inspection/dumping.
class TraceRecorder : public EventTraceSink {
 public:
  struct Record {
    Tick scheduled_at = 0;
    Tick fire_at = 0;
    std::uint64_t event_id = 0;
    bool fired = false;
  };

  explicit TraceRecorder(std::size_t capacity = 4096) : capacity_(capacity) {}

  void OnSchedule(Tick now, Tick fire_at, std::uint64_t event_id) override;
  void OnFire(Tick fire_at, std::uint64_t event_id) override;

  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t fired() const { return fired_; }
  const Summary& queue_delay_ns() const { return queue_delay_ns_; }
  const std::vector<Record>& records() const { return records_; }

  // One JSON object per line, schedule order.
  std::string ToJsonLines() const;

 private:
  std::size_t capacity_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  Summary queue_delay_ns_;
  std::vector<Record> records_;
  std::unordered_map<std::uint64_t, std::size_t> record_index_;
  std::unordered_map<std::uint64_t, Tick> pending_;  // id -> scheduled_at
};

}  // namespace unifab

#endif  // SRC_SIM_METRICS_H_
