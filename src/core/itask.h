// Idempotent tasks (FCC DP#3, first half).
//
// Composable infrastructures have passive failure domains: an FAA chassis
// can lose power independently of every host, taking queued and running
// work with it, and has no resources to recover itself. The FCC answer is
// the *idempotent task*: a unit of work that can be re-executed any number
// of times without violating correctness, so recovery is simply re-dispatch.
//
// The pieces here mirror the paper's proposal:
//   * a "compilation framework" stand-in, AnalyzeIdempotence(), which flags
//     specs whose outputs clobber their inputs (re-running such a region
//     reads its own results) and the runtime's snapshot transform that
//     restores idempotence by capturing inputs first;
//   * a split runtime: the host-side top half dispatches tasks, captures
//     inputs into FAA scratch via eTrans, and monitors timeouts; the
//     device-side bottom half is the accelerator execution itself;
//   * at-least-once execution with configurable recovery: re-execute just
//     the failed task (idempotent mode) or restart the whole job (the
//     baseline a non-idempotent runtime is forced into).

#ifndef SRC_CORE_ITASK_H_
#define SRC_CORE_ITASK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/etrans.h"
#include "src/core/heap.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/topo/chassis.h"

namespace unifab {

using TaskId = std::uint64_t;
inline constexpr TaskId kInvalidTask = 0;

struct TaskSpec {
  std::string name;
  std::vector<ObjectId> inputs;
  std::vector<ObjectId> outputs;
  Tick compute_cost = FromUs(10.0);
  std::vector<TaskId> deps;
  // Semantic effect applied to heap shadows when the task commits (host-side
  // bookkeeping; untimed — the timed cost is inputs + kernel + outputs).
  std::function<void()> apply;
};

struct IdempotenceReport {
  bool idempotent = true;
  std::vector<ObjectId> clobbered_inputs;  // objects both read and written
};

// The static analysis a compiler pass would run: a region that overwrites
// its own inputs is not safely re-executable.
IdempotenceReport AnalyzeIdempotence(const TaskSpec& spec);

enum class RecoveryMode {
  kReexecute,   // idempotent tasks: re-dispatch only what was lost
  kRestartAll,  // baseline: any loss restarts the entire submitted job
};

struct ITaskConfig {
  Tick attempt_timeout = FromUs(400.0);
  int max_attempts = 16;
  RecoveryMode recovery = RecoveryMode::kReexecute;
  std::uint64_t scratch_base = 1ULL << 52;  // FAA scratch address space
};

struct ITaskStats {
  std::uint64_t submitted = 0;
  std::uint64_t attempts = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t transfer_failures = 0;  // attempts killed by a failed eTrans
  std::uint64_t reexecutions = 0;
  std::uint64_t snapshots_created = 0;
  std::uint64_t restarts = 0;  // whole-job restarts (kRestartAll)
  Summary task_latency_us;     // submit -> commit per task

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

class ITaskRuntime {
 public:
  ITaskRuntime(Engine* engine, UnifiedHeap* heap, ETransEngine* etrans, MigrationAgent* agent,
               const ITaskConfig& config);

  // Workers are FAA chassis; dispatch is least-loaded with failure masking.
  void AddWorker(FaaChassis* faa);

  // Submits a task; execution starts when its dependencies commit.
  TaskId Submit(TaskSpec spec);

  // Fires once every submitted task has committed.
  void OnAllComplete(std::function<void()> cb) { all_done_ = std::move(cb); }

  bool TaskDone(TaskId id) const;
  const ITaskStats& stats() const { return stats_; }
  std::size_t tasks_pending() const { return pending_count_; }

 private:
  struct Task {
    TaskId id;
    TaskSpec spec;
    std::vector<ObjectId> capture_inputs;  // snapshots when clobbering
    bool done = false;
    bool running = false;
    int attempts = 0;
    Tick submitted_at = 0;
    EventId timeout_event = kInvalidEventId;
    int worker = -1;
    std::uint64_t attempt_tag = 0;  // tag of the current (latest) attempt
  };

  void MaybeStart(TaskId id);
  void StartAttempt(TaskId id);
  void CaptureInputs(const std::shared_ptr<Task>& task, int worker,
                     std::function<void()> next);
  void RunKernel(const std::shared_ptr<Task>& task, int worker, std::uint64_t attempt_tag);
  void WriteOutputs(const std::shared_ptr<Task>& task, int worker, std::uint64_t attempt_tag);
  void Commit(const std::shared_ptr<Task>& task);
  void OnTimeout(TaskId id, std::uint64_t attempt_tag);
  // A capture/write-back transfer of attempt `attempt_tag` came back failed:
  // abandon the attempt immediately (no need to wait for the timeout) and
  // route into the configured recovery mode.
  void FailAttempt(TaskId id, std::uint64_t attempt_tag);
  void RestartEverything();
  int PickWorker();
  bool DepsDone(const Task& task) const;

  Engine* engine_;
  UnifiedHeap* heap_;
  ETransEngine* etrans_;
  MigrationAgent* agent_;
  ITaskConfig config_;
  std::vector<FaaChassis*> workers_;
  std::unordered_map<TaskId, std::shared_ptr<Task>> tasks_;
  std::vector<TaskId> submit_order_;
  std::function<void()> all_done_;
  TaskId next_id_ = 1;
  std::uint64_t attempt_counter_ = 0;
  std::size_t pending_count_ = 0;
  int rr_worker_ = 0;
  std::uint64_t scratch_bump_ = 0;
  ITaskStats stats_;
  MetricGroup metrics_;
};

}  // namespace unifab

#endif  // SRC_CORE_ITASK_H_
