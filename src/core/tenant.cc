#include "src/core/tenant.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/core/runtime.h"

namespace unifab {

TenantEngine::TenantEngine(UniFabricRuntime* runtime, const ScenarioSpec& spec)
    : runtime_(runtime), spec_(spec) {
  assert(spec_.errors.empty() && "scenario spec has parse errors");
  Engine& engine = runtime_->cluster()->engine();
  class_stats_.resize(spec_.classes.size());

  // One traffic source per tenant, each with its own Rng stream derived
  // from the campaign seed: draws never cross tenants, so scenario edits
  // and worker-thread counts cannot reshuffle another tenant's workload.
  const int num_hosts = runtime_->cluster()->num_hosts();
  const int num_fams = runtime_->cluster()->num_fams();
  std::uint32_t next_id = 1;  // tenant 0 stays the legacy single-tenant flow
  for (std::size_t c = 0; c < spec_.classes.size(); ++c) {
    for (std::uint32_t i = 0; i < spec_.classes[c].tenants; ++i) {
      Tenant t{next_id,
               static_cast<int>(c),
               static_cast<int>(next_id % static_cast<std::uint32_t>(std::max(1, num_hosts))),
               static_cast<int>(next_id % static_cast<std::uint32_t>(std::max(1, num_fams))),
               Rng(DeriveStream(spec_.seed, next_id)),
               kInvalidObject,
               0};
      tenants_.push_back(std::move(t));
      ++next_id;
    }
  }

  metrics_ = MetricGroup(&engine.metrics(), "core/tenant");
  for (std::size_t c = 0; c < class_stats_.size(); ++c) {
    const std::string prefix = spec_.classes[c].name + "/";
    metrics_.AddCounterFn(prefix + "issued", [this, c] { return class_stats_[c].issued; });
    metrics_.AddCounterFn(prefix + "completed",
                          [this, c] { return class_stats_[c].completed; });
    metrics_.AddCounterFn(prefix + "failed", [this, c] { return class_stats_[c].failed; });
    metrics_.AddSummaryFn(prefix + "latency_us",
                          [this, c] { return &class_stats_[c].latency_us; });
  }

  audit_ = AuditScope(&engine.audit(), "core/tenant");
  // No lost or double-counted tenant completions: every issued op is
  // exactly one of completed, failed, or still in flight — including
  // across link epochs, retries, and fault recovery.
  audit_.AddCheck("completions_conserved", [this]() -> std::string {
    std::uint64_t issue_sum = 0;
    std::uint64_t terminal_sum = 0;
    for (const auto& s : class_stats_) {
      issue_sum += s.issued;
      terminal_sum += s.completed + s.failed;
    }
    if (issue_sum != terminal_sum + in_flight_) {
      return "issued " + std::to_string(issue_sum) + " != completed+failed " +
             std::to_string(terminal_sum) + " + in_flight " + std::to_string(in_flight_);
    }
    return {};
  });
}

std::uint64_t TenantEngine::issued() const {
  std::uint64_t sum = 0;
  for (const auto& s : class_stats_) {
    sum += s.issued;
  }
  return sum;
}

std::uint64_t TenantEngine::completed() const {
  std::uint64_t sum = 0;
  for (const auto& s : class_stats_) {
    sum += s.completed;
  }
  return sum;
}

std::uint64_t TenantEngine::failed() const {
  std::uint64_t sum = 0;
  for (const auto& s : class_stats_) {
    sum += s.failed;
  }
  return sum;
}

void TenantEngine::Start() {
  Engine& engine = runtime_->cluster()->engine();
  const Tick horizon = FromUs(spec_.horizon_us);
  for (std::size_t idx = 0; idx < tenants_.size(); ++idx) {
    Tenant& t = tenants_[idx];
    // Uniform phase within one mean inter-arrival keeps 100k deterministic
    // tenants from all firing on the same tick.
    const double mean_gap_us = 1e6 / spec_.classes[t.cls].rate_ops_per_s;
    const double first_us = t.rng.NextDouble() * mean_gap_us;
    if (first_us <= kMaxParsedUs && FromUs(first_us) <= horizon) {
      engine.Schedule(FromUs(first_us), [this, idx] { Arrive(idx); });
    }
  }
}

void TenantEngine::ScheduleNext(std::size_t idx) {
  Engine& engine = runtime_->cluster()->engine();
  Tenant& t = tenants_[idx];
  const TenantClassSpec& cls = spec_.classes[t.cls];
  const double mean_gap_us = 1e6 / cls.rate_ops_per_s;
  double gap_us = 0.0;
  switch (cls.arrival) {
    case ArrivalKind::kPoisson:
      gap_us = t.rng.NextExponential(mean_gap_us);
      break;
    case ArrivalKind::kDeterministic:
      gap_us = mean_gap_us;
      break;
    case ArrivalKind::kBursty:
      // `burst` near-back-to-back ops (100 ns apart), then an idle period
      // sized so the mean rate still matches the class rate.
      if (t.burst_left > 0) {
        --t.burst_left;
        gap_us = 0.1;
      } else {
        t.burst_left = cls.burst - 1;
        gap_us = t.rng.NextExponential(mean_gap_us * static_cast<double>(cls.burst));
      }
      break;
  }
  // A gap beyond kMaxParsedUs cannot land inside any parsed horizon, and
  // converting it to a Tick is out of range: it can come out as 0, and the
  // tenant would re-arrive on the same tick forever.
  if (!(gap_us <= kMaxParsedUs)) {
    return;
  }
  const Tick gap = FromUs(gap_us);
  if (engine.Now() + gap <= FromUs(spec_.horizon_us)) {
    engine.Schedule(gap, [this, idx] { Arrive(idx); });
  }
}

TenantOp TenantEngine::PickOp(Tenant& t) {
  const auto& mix = spec_.classes[t.cls].mix;
  double total = 0.0;
  for (double w : mix) {
    total += w;
  }
  double u = t.rng.NextDouble() * total;
  for (int i = 0; i < kNumTenantOps; ++i) {
    u -= mix[i];
    if (u < 0.0) {
      return static_cast<TenantOp>(i);
    }
  }
  return TenantOp::kETrans;  // rounding fell off the end; weight 0 ops excluded above
}

void TenantEngine::Arrive(std::size_t idx) {
  Tenant& t = tenants_[idx];
  const TenantOp op = PickOp(t);
  TenantClassStats& s = class_stats_[static_cast<std::size_t>(t.cls)];
  ++s.issued;
  ++s.ops[static_cast<int>(op)];
  ++in_flight_;
  switch (op) {
    case TenantOp::kETrans:
      IssueETrans(t);
      break;
    case TenantOp::kHeapRead:
    case TenantOp::kHeapWrite:
    case TenantOp::kHeapMigrate:
      IssueHeap(t, op);
      break;
    case TenantOp::kCollect:
      IssueCollect(t);
      break;
    case TenantOp::kFaa:
      IssueFaa(t);
      break;
  }
  ScheduleNext(idx);
}

void TenantEngine::Complete(int cls, Tick issued_at, bool ok) {
  Engine& engine = runtime_->cluster()->engine();
  TenantClassStats& s = class_stats_[static_cast<std::size_t>(cls)];
  assert(in_flight_ > 0);
  --in_flight_;
  if (ok) {
    ++s.completed;
    s.latency_us.Add(ToUs(engine.Now() - issued_at));
  } else {
    ++s.failed;
  }
}

void TenantEngine::IssueETrans(Tenant& t) {
  Cluster* cluster = runtime_->cluster();
  const TenantClassSpec& cls = spec_.classes[t.cls];
  if (cluster->num_fams() == 0) {
    Complete(t.cls, cluster->engine().Now(), true);  // degenerate topology no-op
    return;
  }
  ETransDescriptor d;
  const std::uint64_t slot = (static_cast<std::uint64_t>(t.id) % 4096) << 16;
  d.src = {Segment{cluster->host(t.host)->id(), slot, cls.bytes}};
  d.dst = {Segment{cluster->fam(t.fam)->id(), slot, cls.bytes}};
  d.attributes.request_mbps = cls.request_mbps;
  d.attributes.tenant = t.id;
  d.attributes.qos = cls.qos;
  const Tick t0 = cluster->engine().Now();
  const int cls_idx = t.cls;
  TransferFuture f = runtime_->etrans()->Submit(runtime_->host_agent(t.host), d);
  f.Then([this, cls_idx, t0](const TransferResult& r) { Complete(cls_idx, t0, r.ok); });
}

bool TenantEngine::EnsureObject(Tenant& t) {
  if (t.object != kInvalidObject) {
    return true;
  }
  const TenantClassSpec& cls = spec_.classes[t.cls];
  // Objects shadow real host memory, so cap them: heap ops measure access
  // latency and migration, not bulk footprint (that is what eTrans is for).
  const auto size =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cls.bytes, 1ULL << 16));
  t.object = runtime_->heap(t.host)->Allocate(size, /*tier_hint=*/0);
  return t.object != kInvalidObject;
}

void TenantEngine::IssueHeap(Tenant& t, TenantOp op) {
  Engine& engine = runtime_->cluster()->engine();
  const Tick t0 = engine.Now();
  const int cls_idx = t.cls;
  if (!EnsureObject(t)) {
    Complete(cls_idx, t0, false);  // host tier exhausted
    return;
  }
  UnifiedHeap* heap = runtime_->heap(t.host);
  auto done = [this, cls_idx, t0] { Complete(cls_idx, t0, true); };
  if (op == TenantOp::kHeapRead) {
    heap->Read(t.object, std::move(done));
    return;
  }
  if (op == TenantOp::kHeapWrite) {
    heap->Write(t.object, std::move(done));
    return;
  }
  // Migrate: bounce between host DRAM (tier 0) and the tenant's FAM tier.
  if (runtime_->cluster()->num_fams() == 0) {
    heap->Read(t.object, std::move(done));
    return;
  }
  // Migrate reports a rejection twice: done(false) before it returns, then
  // the result code. Only the code tells a benign no-op (busy, same tier)
  // from a failure (no object, full tier), so rejections complete from the
  // code and the callback completes only started migrations, whose eTrans
  // copy finishes after Migrate has returned.
  auto started = std::make_shared<bool>(false);
  const int dst_tier = heap->TierOf(t.object) == 0 ? 1 + t.fam : 0;
  const MigrateResult r =
      heap->Migrate(t.object, dst_tier, [this, cls_idx, t0, started](bool ok) {
        if (*started) {
          Complete(cls_idx, t0, ok);
        }
      });
  *started = r == MigrateResult::kStarted;
  if (!*started) {
    Complete(cls_idx, t0, r == MigrateResult::kBusy || r == MigrateResult::kSameTier);
  }
}

void TenantEngine::IssueCollect(Tenant& t) {
  Cluster* cluster = runtime_->cluster();
  const TenantClassSpec& cls = spec_.classes[t.cls];
  const Tick t0 = cluster->engine().Now();
  const int cls_idx = t.cls;
  // Members must live on fabric-servable memory: FAAs serve pushed slices
  // and FAMs serve fabric writes, but a host adapter only initiates — a
  // host-member group's exchanges can never land and the collective
  // retries itself to an abort.
  const bool use_faas = cluster->num_faas() >= 2;
  const int members = std::min(use_faas ? cluster->num_faas() : cluster->num_fams(), 4);
  if (members < 2 || runtime_->collect() == nullptr) {
    Complete(cls_idx, t0, true);  // degenerate group: nothing to reduce
    return;
  }
  CollectiveGroup group;
  const std::uint64_t base = (static_cast<std::uint64_t>(t.id) % 4096) << 16;
  for (int i = 0; i < members; ++i) {
    group.members.push_back(CollectiveMember{
        use_faas ? cluster->faa(i)->id() : cluster->fam(i)->id(), base});
  }
  CollectiveFuture f = runtime_->collect()->AllReduce(group, cls.bytes);
  f.Then([this, cls_idx, t0](const CollectiveResult& r) { Complete(cls_idx, t0, r.ok); });
}

void TenantEngine::IssueFaa(Tenant& t) {
  Cluster* cluster = runtime_->cluster();
  const Tick t0 = cluster->engine().Now();
  const int cls_idx = t.cls;
  if (runtime_->itasks() == nullptr || cluster->num_faas() == 0) {
    Complete(cls_idx, t0, true);  // no FAAs provisioned: no-op
    return;
  }
  TaskSpec spec;
  spec.name = "tenant" + std::to_string(t.id);
  spec.compute_cost = FromUs(5.0);
  // `apply` runs exactly once, at commit — the idempotent-task engine's
  // completion hook (re-executed attempts commit once).
  spec.apply = [this, cls_idx, t0] { Complete(cls_idx, t0, true); };
  runtime_->itasks()->Submit(std::move(spec));
}

}  // namespace unifab
