// The benchmark's three workloads and the unloaded calibration probe.
//
// Every workload drives the simulator only through its public APIs and runs
// one repetition as: build (timed as set-up) -> warm-up slice, drained ->
// registry snapshot -> timed phase of fixed simulated length, run in fixed
// RunUntil slices and then drained -> snapshot, audit sweep and accounting.
// A repetition is a pure function of (workload, seed): the worker count and
// tracing change host cost only, never a simulated number.

#ifndef FABBENCH_HARNESS_WORKLOADS_H_
#define FABBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fabbench/harness/trace.h"

namespace fabbench {

struct RepOptions {
  std::uint64_t seed = 1;
  int workers = 1;                  // sharded-engine worker threads
  SpanRecorder* tracer = nullptr;   // spans are recorded when it is enabled
};

struct RepResult {
  // Host cost (seconds, megabytes).
  double cluster_build_s = 0.0;
  double runtime_build_s = 0.0;
  double heap_alloc_s = 0.0;
  double setup_s = 0.0;
  double rss_after_build_mb = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_s;  // host time of each sim.run slice of the timed phase
  double core_call_s = 0.0;     // host time inside calls into core APIs (traced reps)
  double mem_call_s = 0.0;      // host time inside calls into mem APIs (traced reps)

  // Engine activity over the timed phase.
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_events = 0;

  // Simulated outputs of the timed phase.
  std::vector<double> latency_us;   // headline operations, issue -> completion
  double p50_us = 0.0;              // nearest-rank percentiles of the headline ops
  double p99_us = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t payload_bytes = 0;  // completed payload of ops issued in the window
  double window_us = 0.0;           // simulated length of the issue window
  double sim_elapsed_us = 0.0;      // simulated time from window start to drained
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;
  std::vector<std::pair<std::string, double>> sim_extra;  // per-class tenant outputs

  // Correctness: audit violations and accounting errors (empty = clean).
  std::vector<std::string> violations;

  // MetricRegistry::SnapshotJson() at the start and end of the timed phase.
  std::string snap_before;
  std::string snap_after;
};

const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);
// The worker count the benchmark pins for `workload` (never UNIFAB_SHARDS).
int PinnedWorkers(const std::string& workload);
// How many independent campaigns (sub-seeds of the run seed) make up one
// run's fixed simulated work; simulated metrics are medians over them.
int Campaigns(const std::string& workload);

RepResult RunRep(const std::string& workload, const RepOptions& options);

// Unloaded dependent-access probes against paper Table 2: mean latency (ns)
// of L1, L2, local DRAM and remote (fabric-attached) reads.
struct ProbeResult {
  double l1_ns = 0.0;
  double l2_ns = 0.0;
  double local_ns = 0.0;
  double remote_ns = 0.0;
};
ProbeResult RunCalibrationProbe();

}  // namespace fabbench

#endif  // FABBENCH_HARNESS_WORKLOADS_H_
