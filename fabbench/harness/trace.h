// In-memory span recorder for the benchmark's traced runs.
//
// Two clocks, kept apart as two trace "processes" in the output:
//   * host time (pid 1): phase spans such as topo.build, core.runtime_build
//     and every sim.run slice, in microseconds since the recorder started;
//   * simulated time (pid 2): one span per headline operation from issue to
//     completion, in simulated microseconds, each with its own trace id and
//     the workload phase (warm-up or timed) as parent.
// Spans stay in memory and are written once, at exit, as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto). A disabled recorder costs
// one branch per call site.

#ifndef FABBENCH_HARNESS_TRACE_H_
#define FABBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fabbench {

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point t0);

class SpanRecorder {
 public:
  enum class Clock : int { kHost = 1, kSim = 2 };

  // Operation spans beyond `max_op_spans` are counted, not stored, so a long
  // run cannot grow the trace without bound.
  explicit SpanRecorder(std::size_t max_op_spans = 200000);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  // Drops every stored span, so each traced repetition pays the same cost.
  void Clear();

  // Host-time span [t0, t1].
  void Host(const char* name, HostClock::time_point t0, HostClock::time_point t1);
  // Simulated-time phase span, in simulated microseconds.
  std::uint64_t SimPhase(const char* name, double start_us, double end_us);
  // One operation, issue to completion, in simulated microseconds.
  void Op(const char* name, double start_us, double end_us, std::uint64_t parent);

  std::uint64_t op_spans_dropped() const { return dropped_; }
  std::size_t size() const { return spans_.size(); }

  // Writes every stored span; returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock clock;
    double ts_us;
    double dur_us;
    std::uint64_t id;
    std::uint64_t parent;
  };

  bool enabled_ = false;
  std::size_t max_op_spans_;
  std::size_t op_spans_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_id_ = 1;
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace fabbench

#endif  // FABBENCH_HARNESS_TRACE_H_
