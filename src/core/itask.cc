#include "src/core/itask.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace unifab {

IdempotenceReport AnalyzeIdempotence(const TaskSpec& spec) {
  IdempotenceReport report;
  std::unordered_set<ObjectId> outs(spec.outputs.begin(), spec.outputs.end());
  for (ObjectId in : spec.inputs) {
    if (outs.count(in) != 0) {
      report.idempotent = false;
      report.clobbered_inputs.push_back(in);
    }
  }
  return report;
}

void ITaskStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "submitted", [this] { return submitted; });
  group.AddCounterFn(prefix + "attempts", [this] { return attempts; });
  group.AddCounterFn(prefix + "completed", [this] { return completed; });
  group.AddCounterFn(prefix + "timeouts", [this] { return timeouts; });
  group.AddCounterFn(prefix + "transfer_failures", [this] { return transfer_failures; });
  group.AddCounterFn(prefix + "reexecutions", [this] { return reexecutions; });
  group.AddCounterFn(prefix + "snapshots_created", [this] { return snapshots_created; });
  group.AddCounterFn(prefix + "restarts", [this] { return restarts; });
  group.AddSummaryFn(prefix + "task_latency_us", [this] { return &task_latency_us; });
}

ITaskRuntime::ITaskRuntime(Engine* engine, UnifiedHeap* heap, ETransEngine* etrans,
                           MigrationAgent* agent, const ITaskConfig& config)
    : engine_(engine), heap_(heap), etrans_(etrans), agent_(agent), config_(config) {
  metrics_ = MetricGroup(&engine_->metrics(), "core/itask");
  stats_.BindTo(metrics_);
}

void ITaskRuntime::AddWorker(FaaChassis* faa) { workers_.push_back(faa); }

TaskId ITaskRuntime::Submit(TaskSpec spec) {
  assert(!workers_.empty() && "no FAA workers registered");
  const TaskId id = next_id_++;
  auto task = std::make_shared<Task>();
  task->id = id;
  task->spec = std::move(spec);
  task->submitted_at = engine_->Now();
  task->capture_inputs = task->spec.inputs;

  // The "compilation framework": make clobbering regions idempotent by
  // snapshotting the inputs they overwrite.
  const IdempotenceReport report = AnalyzeIdempotence(task->spec);
  if (!report.idempotent) {
    for (ObjectId clobbered : report.clobbered_inputs) {
      const ObjectInfo info = heap_->Info(clobbered);
      const ObjectId snap = heap_->Allocate(info.size, info.tier);
      if (snap == kInvalidObject) {
        continue;
      }
      ++stats_.snapshots_created;
      heap_->Shadow(snap) = heap_->Shadow(clobbered);
      ETransDescriptor d;
      d.src.push_back(Segment{heap_->Tier(info.tier).caps.node, info.addr, info.size});
      const ObjectInfo snap_info = heap_->Info(snap);
      d.dst.push_back(
          Segment{heap_->Tier(snap_info.tier).caps.node, snap_info.addr, snap_info.size});
      d.ownership = Ownership::kDetached;
      etrans_->Submit(agent_, d);
      for (auto& in : task->capture_inputs) {
        if (in == clobbered) {
          in = snap;
        }
      }
    }
  }

  ++stats_.submitted;
  ++pending_count_;
  tasks_.emplace(id, task);
  submit_order_.push_back(id);
  MaybeStart(id);
  return id;
}

bool ITaskRuntime::DepsDone(const Task& task) const {
  for (TaskId dep : task.spec.deps) {
    auto it = tasks_.find(dep);
    if (it == tasks_.end() || !it->second->done) {
      return false;
    }
  }
  return true;
}

void ITaskRuntime::MaybeStart(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return;
  }
  Task& task = *it->second;
  if (task.done || task.running || !DepsDone(task)) {
    return;
  }
  StartAttempt(id);
}

int ITaskRuntime::PickWorker() {
  // Least-loaded alive worker, round-robin tie-break.
  int best = -1;
  std::size_t best_load = 0;
  const int n = static_cast<int>(workers_.size());
  for (int i = 0; i < n; ++i) {
    const int w = (rr_worker_ + i) % n;
    FaaChassis* faa = workers_[static_cast<std::size_t>(w)];
    if (faa->failed()) {
      continue;
    }
    const std::size_t load =
        faa->accelerator()->QueuedKernels() + static_cast<std::size_t>(faa->accelerator()->EnginesBusy());
    if (best < 0 || load < best_load) {
      best = w;
      best_load = load;
    }
  }
  rr_worker_ = (rr_worker_ + 1) % n;
  return best;
}

void ITaskRuntime::StartAttempt(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return;
  }
  const std::shared_ptr<Task>& task = it->second;
  if (task->attempts >= config_.max_attempts) {
    return;  // give up; pending_count_ keeps the job visibly incomplete
  }
  const int worker = PickWorker();
  if (worker < 0) {
    // Every worker is down; retry after a beat.
    engine_->Schedule(config_.attempt_timeout, [this, id] { MaybeStart(id); });
    return;
  }

  task->running = true;
  task->worker = worker;
  ++task->attempts;
  ++stats_.attempts;
  if (task->attempts > 1) {
    ++stats_.reexecutions;
  }

  const std::uint64_t attempt_tag = ++attempt_counter_;
  task->attempt_tag = attempt_tag;
  task->timeout_event = engine_->Schedule(config_.attempt_timeout, [this, id, attempt_tag] {
    OnTimeout(id, attempt_tag);
  });

  CaptureInputs(task, worker, [this, task, worker, attempt_tag] {
    RunKernel(task, worker, attempt_tag);
  });
}

void ITaskRuntime::CaptureInputs(const std::shared_ptr<Task>& task, int worker,
                                 std::function<void()> next) {
  // Ship every input object into the worker's scratch memory via eTrans
  // (host-driven top half). Empty input lists proceed immediately.
  if (task->capture_inputs.empty()) {
    engine_->Schedule(0, std::move(next));
    return;
  }
  FaaChassis* faa = workers_[static_cast<std::size_t>(worker)];
  auto remaining = std::make_shared<std::size_t>(task->capture_inputs.size());
  auto fanin = [remaining, next = std::move(next)] {
    if (--*remaining == 0) {
      next();
    }
  };
  for (ObjectId in : task->capture_inputs) {
    const ObjectInfo info = heap_->Info(in);
    if (info.id == kInvalidObject) {
      fanin();
      continue;
    }
    ETransDescriptor d;
    d.src.push_back(Segment{heap_->Tier(info.tier).caps.node, info.addr, info.size});
    d.dst.push_back(Segment{faa->id(), config_.scratch_base + (scratch_bump_ += info.size),
                            info.size});
    d.immediate = true;  // input capture is on the task's critical path
    d.ownership = Ownership::kInitiator;
    TransferFuture f = etrans_->Submit(agent_, d);
    f.Then([this, fanin, id = task->id, tag = task->attempt_tag](const TransferResult& r) {
      if (!r.ok) {
        // A lost input capture would otherwise stall the fan-in until the
        // attempt timeout; fail fast into the recovery path instead.
        FailAttempt(id, tag);
        return;
      }
      fanin();
    });
  }
}

void ITaskRuntime::RunKernel(const std::shared_ptr<Task>& task, int worker,
                             std::uint64_t attempt_tag) {
  FaaChassis* faa = workers_[static_cast<std::size_t>(worker)];
  faa->accelerator()->Execute(task->spec.compute_cost, [this, task, worker, attempt_tag] {
    WriteOutputs(task, worker, attempt_tag);
  });
  // If the accelerator fails (or dropped the kernel), no callback arrives
  // and the attempt timeout drives recovery.
}

void ITaskRuntime::WriteOutputs(const std::shared_ptr<Task>& task, int worker,
                                std::uint64_t attempt_tag) {
  if (task->done) {
    return;  // a duplicate attempt finished after commit: idempotent no-op
  }
  FaaChassis* faa = workers_[static_cast<std::size_t>(worker)];
  auto remaining = std::make_shared<std::size_t>(task->spec.outputs.size() + 1);
  auto fanin = [this, task, attempt_tag, remaining] {
    if (--*remaining != 0) {
      return;
    }
    if (task->done) {
      return;
    }
    // This attempt won; cancel its timeout and commit.
    (void)attempt_tag;
    engine_->Cancel(task->timeout_event);
    Commit(task);
  };
  for (ObjectId out : task->spec.outputs) {
    const ObjectInfo info = heap_->Info(out);
    if (info.id == kInvalidObject) {
      fanin();
      continue;
    }
    ETransDescriptor d;
    d.src.push_back(Segment{faa->id(), config_.scratch_base, info.size});
    d.dst.push_back(Segment{heap_->Tier(info.tier).caps.node, info.addr, info.size});
    d.immediate = true;
    d.ownership = Ownership::kInitiator;
    TransferFuture f = etrans_->Submit(agent_, d);
    f.Then([this, fanin, id = task->id, attempt_tag](const TransferResult& r) {
      if (!r.ok) {
        FailAttempt(id, attempt_tag);
        return;
      }
      fanin();
    });
  }
  fanin();  // the +1 guard
}

void ITaskRuntime::Commit(const std::shared_ptr<Task>& task) {
  task->done = true;
  task->running = false;
  ++stats_.completed;
  stats_.task_latency_us.Add(ToUs(engine_->Now() - task->submitted_at));
  if (task->spec.apply) {
    task->spec.apply();
  }
  --pending_count_;

  // Unblock dependents.
  for (const auto& [id, t] : tasks_) {
    if (!t->done && !t->running) {
      MaybeStart(id);
    }
  }
  if (pending_count_ == 0 && all_done_) {
    auto cb = std::move(all_done_);
    all_done_ = nullptr;
    cb();
  }
}

void ITaskRuntime::OnTimeout(TaskId id, std::uint64_t attempt_tag) {
  auto it = tasks_.find(id);
  if (it == tasks_.end() || it->second->done || it->second->attempt_tag != attempt_tag) {
    return;  // unknown, committed, or a newer attempt already took over
  }
  ++stats_.timeouts;
  Task& task = *it->second;
  task.running = false;

  if (config_.recovery == RecoveryMode::kRestartAll) {
    RestartEverything();
    return;
  }
  // Idempotent recovery: just run it again somewhere else.
  MaybeStart(id);
}

void ITaskRuntime::FailAttempt(TaskId id, std::uint64_t attempt_tag) {
  auto it = tasks_.find(id);
  if (it == tasks_.end() || it->second->done || it->second->attempt_tag != attempt_tag) {
    return;  // stale failure from an attempt the timeout already replaced
  }
  ++stats_.transfer_failures;
  Task& task = *it->second;
  engine_->Cancel(task.timeout_event);
  task.running = false;

  if (config_.recovery == RecoveryMode::kRestartAll) {
    RestartEverything();
    return;
  }
  MaybeStart(id);
}

void ITaskRuntime::RestartEverything() {
  ++stats_.restarts;
  // Un-commit every task; all completed work is lost because without
  // idempotence guarantees partially written outputs cannot be trusted.
  for (const auto& id : submit_order_) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) {
      continue;
    }
    Task& t = *it->second;
    if (t.done) {
      t.done = false;
      ++pending_count_;
      --stats_.completed;
    }
    if (t.running) {
      engine_->Cancel(t.timeout_event);
      t.running = false;
    }
  }
  for (const auto& id : submit_order_) {
    MaybeStart(id);
  }
}

bool ITaskRuntime::TaskDone(TaskId id) const {
  auto it = tasks_.find(id);
  return it != tasks_.end() && it->second->done;
}

}  // namespace unifab
