#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace unifab {

namespace {

// Worker-thread count from UNIFAB_SHARDS. This intentionally does NOT set
// the number of logical shards — the domain partition is fixed by the
// topology so that event order (and the RunDigest) never depends on how
// many OS threads happen to execute it.
std::uint32_t WorkersFromEnv() {
  const char* env = std::getenv("UNIFAB_SHARDS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || v == 0) {
    return 1;
  }
  return static_cast<std::uint32_t>(v < 256 ? v : 256);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedEngine::ShardedEngine() : ShardedEngine(Options{}) {}

ShardedEngine::ShardedEngine(const Options& options)
    : options_(options),
      workers_(options.workers != 0 ? options.workers : WorkersFromEnv()),
      lookahead_(options.lookahead > 0 ? options.lookahead : 1) {
  metrics_.AddGaugeFn("sim/engine/now_ns", [this] { return ToNs(Now()); });
  metrics_.AddCounterFn("sim/engine/events_fired", [this] { return TotalFired(); });
  metrics_.AddCounterFn("sim/engine/events_pending", [this] {
    std::uint64_t pending = 0;
    for (const auto& s : shards_) {
      pending += s->queue_.Size();
    }
    return pending;
  });
  metrics_.AddCounterFn("sim/engine/late_schedules", [this] {
    std::uint64_t late = 0;
    for (const auto& s : shards_) {
      late += s->late_schedules_;
    }
    return late;
  });
  metrics_.AddCounterFn("sim/engine/shards",
                        [this] { return static_cast<std::uint64_t>(shards_.size()); });
  metrics_.AddCounterFn("sim/engine/windows", [this] { return windows_; });
  metrics_.AddCounterFn("sim/engine/cross_events", [this] { return cross_delivered_; });
  metrics_.AddCounterFn("sim/engine/global_events", [this] { return globals_fired_; });
  metrics_.AddGaugeFn("sim/engine/lookahead_ns", [this] { return ToNs(lookahead_); });
  // Sweeps only run with every shard parked at a barrier, where all staged
  // cross-shard traffic must already have been merged into its destination.
  auditor_.Register("sim/engine/cross_mailboxes_drained", [this]() -> std::string {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      for (std::size_t dst = 0; dst < shards_[i]->outbox_.size(); ++dst) {
        if (!shards_[i]->outbox_[dst].empty()) {
          return "shard " + std::to_string(i) + " holds " +
                 std::to_string(shards_[i]->outbox_[dst].size()) +
                 " unharvested event(s) for shard " + std::to_string(dst);
        }
      }
    }
    return {};
  });
  AddShard("root");
}

ShardedEngine::~ShardedEngine() {
  StopPool();
  bool audited = false;
  std::uint64_t events = 0;
  for (const auto& s : shards_) {
    audited = audited || s->audit_enabled_ever_;
    events += s->fired_;
  }
  if (!audited) {
    return;
  }
  std::fprintf(stderr, "[unifab-audit] digest=%016" PRIx64 " events=%" PRIu64 "\n",
               MergedDigest(), events);
}

Engine& ShardedEngine::AddShard(const std::string& name) {
  assert(windows_ == 0 && "shards must be added before the first run");
  const auto index = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(std::unique_ptr<Engine>(
      new Engine(this, index, MixSeed(options_.seed, index))));
  shard_names_.push_back(name);
  const bool solo = shards_.size() == 1;
  for (auto& s : shards_) {
    s->group_solo_ = solo;
    s->outbox_.resize(shards_.size());
  }
  inbound_.resize(shards_.size());
  return *shards_.back();
}

void ShardedEngine::SetLookahead(Tick lookahead) {
  lookahead_ = lookahead > 0 ? lookahead : 1;
}

void ShardedEngine::SetAuditCadence(std::uint64_t every_n_events) {
  for (auto& s : shards_) {
    s->audit_cadence_ = every_n_events;
    s->events_since_audit_ = 0;
  }
}

void ShardedEngine::AuditNow() {
  const auto violations = auditor_.Sweep();
  if (violations.empty()) {
    return;
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "[unifab-audit] INVARIANT VIOLATION at t=%" PRIu64 "ps %s: %s\n",
                 Now(), v.path.c_str(), v.message.c_str());
  }
  std::abort();
}

std::uint64_t ShardedEngine::MergedDigest() const {
  RunDigest merged;
  for (const auto& s : shards_) {
    merged.Fold(s->digest_.value());
    merged.Fold(s->fired_);
  }
  return merged.value();
}

Tick ShardedEngine::Now() const {
  Tick now = 0;
  for (const auto& s : shards_) {
    now = std::max(now, s->now_);
  }
  return now;
}

bool ShardedEngine::Idle() const { return PendingEvents() == 0; }

std::size_t ShardedEngine::PendingEvents() const {
  std::size_t pending = globals_.size();
  for (const auto& s : shards_) {
    pending += s->queue_.Size() + s->global_staging_.size();
  }
  return pending;
}

std::uint64_t ShardedEngine::TotalFired() const {
  std::uint64_t fired = 0;
  for (const auto& s : shards_) {
    fired += s->fired_;
  }
  return fired;
}

Tick ShardedEngine::MinNextEventTime() {
  Tick next = kTickNever;
  for (auto& s : shards_) {
    next = std::min(next, s->NextLocalEventTime());
  }
  return next;
}

std::size_t ShardedEngine::Run() {
  if (shards_.size() == 1) {
    return shards_[0]->RunLocal();
  }
  const std::size_t fired = RunCore(kTickNever, 0);
  // Align every shard clock to the last fired tick so a subsequent RunFor
  // measures from one well-defined instant, as it did single-threaded.
  Tick now = Now();
  for (auto& s : shards_) {
    s->now_ = now;
  }
  return fired;
}

std::size_t ShardedEngine::RunUntil(Tick deadline) {
  if (shards_.size() == 1) {
    return shards_[0]->RunUntilLocal(deadline);
  }
  const std::size_t fired = RunCore(deadline, 0);
  for (auto& s : shards_) {
    if (s->now_ < deadline) {
      s->now_ = deadline;
    }
  }
  return fired;
}

std::size_t ShardedEngine::Step(std::size_t max_events) {
  if (shards_.size() == 1) {
    return shards_[0]->StepLocal(max_events);
  }
  return RunCore(kTickNever, max_events);
}

std::size_t ShardedEngine::RunCore(Tick deadline, std::size_t max_events) {
  CollectGlobals();  // pick up globals staged from parked (setup) context
  std::size_t total = 0;
  for (;;) {
    if (max_events != 0 && total >= max_events) {
      break;
    }
    const Tick m = MinNextEventTime();
    const Tick g = globals_.empty() ? kTickNever : globals_.front().when;
    const Tick start = std::min(m, g);
    if (start == kTickNever || start > deadline) {
      break;
    }
    Tick window_end = std::min(deadline, g);
    if (m != kTickNever) {
      // Conservative window: nothing another domain does before
      // m + lookahead can reach this domain at or before window_end.
      const Tick cap =
          m > kTickNever - lookahead_ ? kTickNever - 1 : m + lookahead_ - 1;
      window_end = std::min(window_end, cap);
    }
    total += RunWindow(window_end);
    last_window_end_ = window_end;
    HarvestMailboxes(window_end);
    CollectGlobals();
    ServiceAuditRequests();
    total += FireGlobals(window_end);
  }
  return total;
}

std::size_t ShardedEngine::RunWindow(Tick window_end) {
  ++windows_;
  const auto n = static_cast<std::uint32_t>(shards_.size());
  std::uint64_t before = 0;
  std::uint32_t active = 0;
  for (auto& s : shards_) {
    before += s->fired_;
    if (s->NextLocalEventTime() <= window_end) {
      ++active;
    }
  }
  const std::uint32_t w = std::min(workers_, n);
  if (w <= 1 || active <= 1) {
    // One busy shard (or one worker): skip the pool round-trip. The result
    // is identical either way — shard queues are independent inside a
    // window — so this is purely a wall-clock fast path.
    for (auto& s : shards_) {
      s->RunEventsUntilLocal(window_end);
    }
  } else {
    EnsurePool(w);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_window_end_ = window_end;
      pool_pending_ = w - 1;
      ++pool_epoch_;
    }
    pool_start_.notify_all();
    RunShardsOnWorker(0, window_end);
    std::unique_lock<std::mutex> lock(pool_mu_);
    pool_done_.wait(lock, [this] { return pool_pending_ == 0; });
  }
  std::uint64_t after = 0;
  for (const auto& s : shards_) {
    after += s->fired_;
  }
  return static_cast<std::size_t>(after - before);
}

void ShardedEngine::RunShardsOnWorker(std::uint32_t worker, Tick window_end) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t w = std::min(workers_, n);
  for (std::uint32_t s = worker; s < n; s += w) {
    shards_[s]->RunEventsUntilLocal(window_end);
  }
}

void ShardedEngine::HarvestMailboxes(Tick window_end) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  // Invert each source's written-destination list; visiting sources in
  // index order leaves every inbound_[dst] ascending.
  for (std::uint32_t src = 0; src < n; ++src) {
    for (const std::uint32_t dst : shards_[src]->cross_dsts_) {
      inbound_[dst].push_back(src);
    }
    shards_[src]->cross_dsts_.clear();
  }
  for (std::uint32_t dst = 0; dst < n; ++dst) {
    if (inbound_[dst].empty()) {
      continue;
    }
    merge_scratch_.clear();
    for (const std::uint32_t src : inbound_[dst]) {
      for (auto& e : shards_[src]->outbox_[dst]) {
        if (e.when <= window_end) {
          // A component reached another domain faster than the minimum
          // inter-domain link latency: the lookahead contract (and with it
          // determinism) is broken. Fail fast.
          std::fprintf(stderr,
                       "[unifab] FATAL: lookahead violation: shard %u (%s) scheduled "
                       "t=%" PRIu64 "ps on shard %u (%s) inside the window ending "
                       "t=%" PRIu64 "ps (lookahead=%" PRIu64 "ps)\n",
                       src, shard_names_[src].c_str(), e.when, dst,
                       shard_names_[dst].c_str(), window_end, lookahead_);
          std::abort();
        }
        merge_scratch_.push_back(MergeEntry{e.when, src, e.seq, &e.fn});
      }
    }
    // Canonical merge order — (tick, source shard, source sequence) — keeps
    // the destination queue's same-tick FIFO order (and its EventId
    // allocation order) independent of worker-thread interleaving.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeEntry& a, const MergeEntry& b) {
                return std::tie(a.when, a.src, a.seq) < std::tie(b.when, b.src, b.seq);
              });
    for (auto& entry : merge_scratch_) {
      shards_[dst]->queue_.PushCallback(entry.when, std::move(*entry.fn));
    }
    cross_delivered_ += merge_scratch_.size();
    for (const std::uint32_t src : inbound_[dst]) {
      shards_[src]->outbox_[dst].clear();
    }
    inbound_[dst].clear();
  }
}

void ShardedEngine::CollectGlobals() {
  bool added = false;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    auto& staged = shards_[i]->global_staging_;
    for (auto& e : staged) {
      globals_.push_back(GlobalEvent{e.when, i, e.seq, std::move(e.fn)});
      added = true;
    }
    staged.clear();
  }
  if (added) {
    std::sort(globals_.begin(), globals_.end(),
              [](const GlobalEvent& a, const GlobalEvent& b) {
                return std::tie(a.when, a.src, a.seq) < std::tie(b.when, b.src, b.seq);
              });
  }
}

std::size_t ShardedEngine::FireGlobals(Tick window_end) {
  std::size_t fired = 0;
  while (!globals_.empty() && globals_.front().when <= window_end) {
    // An earlier global may have scheduled a local event behind this
    // global's tick. Pulling the clocks up would skip it, so stop here and
    // let RunCore open a window up to this global first.
    if (MinNextEventTime() < globals_.front().when) {
      break;
    }
    GlobalEvent event = std::move(globals_.front());
    globals_.erase(globals_.begin());
    // Every shard is parked and has fired everything <= window_end; pull
    // all clocks up to the global's tick so callbacks scheduling relative
    // delays measure from the right instant.
    for (auto& s : shards_) {
      if (s->now_ < event.when) {
        s->now_ = event.when;
      }
    }
    ++globals_fired_;
    ++fired;
    if (event.fn) {
      event.fn();
    }
    CollectGlobals();  // a global may chain another at the same tick
  }
  return fired;
}

void ShardedEngine::ServiceAuditRequests() {
  bool requested = false;
  for (auto& s : shards_) {
    requested = requested || s->audit_requested_;
    s->audit_requested_ = false;
  }
  if (requested) {
    AuditNow();
  }
}

void ShardedEngine::EnsurePool(std::uint32_t workers) {
  if (pool_workers_ == workers) {
    return;
  }
  StopPool();
  pool_workers_ = workers;
  pool_stop_ = false;
  threads_.reserve(workers - 1);
  for (std::uint32_t i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] {
      std::uint64_t seen_epoch = 0;
      for (;;) {
        Tick window_end = 0;
        {
          std::unique_lock<std::mutex> lock(pool_mu_);
          pool_start_.wait(lock,
                           [&] { return pool_stop_ || pool_epoch_ != seen_epoch; });
          if (pool_stop_) {
            return;
          }
          seen_epoch = pool_epoch_;
          window_end = pool_window_end_;
        }
        RunShardsOnWorker(i, window_end);
        {
          std::lock_guard<std::mutex> lock(pool_mu_);
          --pool_pending_;
        }
        pool_done_.notify_one();
      }
    });
  }
}

void ShardedEngine::StopPool() {
  if (threads_.empty()) {
    pool_workers_ = 0;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_start_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
  pool_workers_ = 0;
}

}  // namespace unifab
