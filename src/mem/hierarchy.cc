#include "src/mem/hierarchy.h"

#include <cassert>
#include <memory>
#include <utility>

namespace unifab {

void HierarchyStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "loads", [this] { return loads; });
  group.AddCounterFn(prefix + "stores", [this] { return stores; });
  group.AddCounterFn(prefix + "l1_hits", [this] { return l1_hits; });
  group.AddCounterFn(prefix + "l2_hits", [this] { return l2_hits; });
  group.AddCounterFn(prefix + "local_mem_accesses", [this] { return local_mem_accesses; });
  group.AddCounterFn(prefix + "remote_mem_accesses", [this] { return remote_mem_accesses; });
  group.AddCounterFn(prefix + "writebacks_to_memory", [this] { return writebacks_to_memory; });
  group.AddCounterFn(prefix + "writebacks_failed", [this] { return writebacks_failed; });
  group.AddCounterFn(prefix + "prefetches_issued", [this] { return prefetches_issued; });
  group.AddCounterFn(prefix + "prefetch_hits", [this] { return prefetch_hits; });
  group.AddCounterFn(prefix + "misses_completed", [this] { return misses_completed; });
  group.AddCounterFn(prefix + "poisoned", [this] { return poisoned; });
  group.AddSummaryFn(prefix + "access_latency_ns", [this] { return &access_latency_ns; });
}

MemoryHierarchy::MemoryHierarchy(Engine* engine, const HierarchyConfig& config, std::string name)
    : engine_(engine),
      config_(config),
      name_(std::move(name)),
      l1_(config.l1),
      l2_(config.l2) {
  metrics_ = MetricGroup(&engine_->metrics(), "mem/hierarchy/" + name_);
  stats_.BindTo(metrics_);
  l1_.stats().BindTo(metrics_, "l1/");
  l2_.stats().BindTo(metrics_, "l2/");
  audit_ = AuditScope(&engine_->audit(), "mem/hierarchy/" + name_);
  // Every miss that took an MSHR ends exactly once: filled or poisoned.
  audit_.AddCheck("miss_conservation", [this]() -> std::string {
    const std::uint64_t issued = stats_.local_mem_accesses + stats_.remote_mem_accesses;
    const std::uint64_t ended = stats_.misses_completed + stats_.poisoned + mshrs_in_use_;
    if (issued != ended) {
      return "misses issued=" + std::to_string(issued) + " != completed(" +
             std::to_string(stats_.misses_completed) + ") + poisoned(" +
             std::to_string(stats_.poisoned) + ") + in flight(" +
             std::to_string(mshrs_in_use_) + ")";
    }
    return {};
  });
}

void MemoryHierarchy::MapLocal(std::uint64_t base, std::uint64_t size, DramDevice* dram) {
  ranges_.push_back(AddressRange{base, size, dram, kInvalidPbrId});
}

void MemoryHierarchy::MapRemote(std::uint64_t base, std::uint64_t size, PbrId node) {
  ranges_.push_back(AddressRange{base, size, nullptr, node});
}

const AddressRange* MemoryHierarchy::RangeFor(std::uint64_t addr) const {
  for (const auto& r : ranges_) {
    if (r.Contains(addr)) {
      return &r;
    }
  }
  return nullptr;
}

Tick MemoryHierarchy::ReserveLevel(Tick& next_free, Tick interval) {
  // Returns the extra queuing delay imposed by the level's service rate and
  // books the slot.
  const Tick now = engine_->Now();
  const Tick start = next_free > now ? next_free : now;
  next_free = start + interval;
  return start - now;
}

void MemoryHierarchy::Access(std::uint64_t addr, bool is_write, std::function<void()> done) {
  const std::uint64_t line = l1_.LineBase(addr);
  if (is_write) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
  }
  const Tick issued_at = engine_->Now();

  // Retires a hit after `latency`; only safe to call on paths that have not
  // moved `done` into a MissContext.
  auto retire = [this, issued_at, &done](Tick latency) {
    engine_->Schedule(latency, [this, issued_at, done = std::move(done)] {
      stats_.access_latency_ns.Add(ToNs(engine_->Now() - issued_at));
      if (done) {
        done();
      }
    });
  };

  // L1 probe.
  if (l1_.Access(line, is_write)) {
    ++stats_.l1_hits;
    const Tick queue = ReserveLevel(l1_next_free_, config_.l1_interval);
    retire(queue + config_.l1_latency);
    return;
  }

  // The prefetcher trains on every L1 miss (including L2 hits on lines it
  // prefetched earlier) so a steady stream keeps running ahead.
  MaybePrefetch(line);

  // L2 probe.
  if (l2_.Access(line, is_write)) {
    ++stats_.l2_hits;
    if (prefetched_lines_.erase(line) > 0) {
      ++stats_.prefetch_hits;
    }
    const Tick queue = ReserveLevel(l2_next_free_, config_.l2_interval);
    FillLine(line, is_write);
    retire(queue + config_.l1_latency + config_.l2_latency);
    return;
  }

  // Memory access (local or fabric).
  MissContext ctx{line, is_write, issued_at, std::move(done), /*is_prefetch=*/false};
  StartMiss(std::move(ctx), config_.l1_latency + config_.l2_latency);
}

void MemoryHierarchy::StartMiss(MissContext ctx, Tick path_latency) {
  // A new miss must also queue while older misses are waiting, or misses
  // issued from completion callbacks would jump the FIFO and starve them.
  if (mshrs_in_use_ >= config_.mshrs || !waiting_misses_.empty()) {
    if (ctx.is_prefetch) {
      return;  // prefetches never queue for MSHRs
    }
    waiting_misses_.emplace_back(std::move(ctx), path_latency);
    return;
  }
  ++mshrs_in_use_;
  IssueMemoryAccess(std::move(ctx), path_latency);
}

void MemoryHierarchy::IssueMemoryAccess(MissContext ctx, Tick path_latency) {
  const std::uint64_t line = ctx.line_addr;
  const AddressRange* range = RangeFor(line);
  assert(range != nullptr && "access to unmapped address");

  // Write-allocate: a store miss fetches the line (a read at the device)
  // before dirtying it in cache; the dirty data returns to memory on
  // eviction.
  if (range->IsLocal()) {
    ++stats_.local_mem_accesses;
    auto complete = [this, ctx = std::make_shared<MissContext>(std::move(ctx))] {
      FinishMiss(*ctx, /*ok=*/true);
    };
    engine_->Schedule(path_latency + config_.mem_ctrl_latency,
                      [this, range, complete = std::move(complete), line] {
                        range->local->Access(line, config_.line_bytes, /*is_write=*/false,
                                             std::move(complete));
                      });
    return;
  }

  ++stats_.remote_mem_accesses;
  assert(adapter_ != nullptr && "remote range mapped but no FHA attached");
  auto complete = [this, ctx = std::make_shared<MissContext>(std::move(ctx))](bool ok) {
    FinishMiss(*ctx, ok);
  };
  engine_->Schedule(path_latency, [this, range, complete = std::move(complete), line] {
    MemRequest req;
    req.type = MemRequest::Type::kRead;  // write-allocate fetch
    req.addr = line;
    req.bytes = config_.line_bytes;
    req.channel = Channel::kMem;
    adapter_->Submit(range->remote, req, std::move(complete));
  });
}

void MemoryHierarchy::FinishMiss(const MissContext& ctx, bool ok) {
  assert(mshrs_in_use_ > 0);
  --mshrs_in_use_;

  if (!ok) {
    // The fabric failed the fetch after a link epoch change or the MSHR
    // deadline. Retire the access the way a CXL host retires a load whose
    // request timed out: poisoned data, a counted error, no fill, and the
    // core is not left hanging.
    ++stats_.poisoned;
  } else if (ctx.is_prefetch) {
    ++stats_.misses_completed;
    // Prefetched data lands in the L2 only.
    if (auto ev = l2_.Insert(ctx.line_addr, /*dirty=*/false); ev.has_value() && ev->dirty) {
      WritebackVictim(ev->line_addr);
    }
    prefetched_lines_.insert(ctx.line_addr);
  } else {
    ++stats_.misses_completed;
    FillLine(ctx.line_addr, ctx.is_write);
    stats_.access_latency_ns.Add(ToNs(engine_->Now() - ctx.issued_at));
  }
  if (ctx.done) {
    ctx.done();  // prefetches carry none
  }

  while (!waiting_misses_.empty() && mshrs_in_use_ < config_.mshrs) {
    auto [next, path] = std::move(waiting_misses_.front());
    waiting_misses_.pop_front();
    ++mshrs_in_use_;
    IssueMemoryAccess(std::move(next), path);
  }
}

void MemoryHierarchy::FillLine(std::uint64_t line_addr, bool dirty) {
  if (auto ev = l1_.Insert(line_addr, dirty); ev.has_value()) {
    // L1 victim falls into L2.
    if (auto ev2 = l2_.Insert(ev->line_addr, ev->dirty); ev2.has_value() && ev2->dirty) {
      WritebackVictim(ev2->line_addr);
    }
  }
}

void MemoryHierarchy::WritebackVictim(std::uint64_t line_addr) {
  const AddressRange* range = RangeFor(line_addr);
  if (range == nullptr) {
    return;
  }
  ++stats_.writebacks_to_memory;
  if (range->IsLocal()) {
    range->local->Access(line_addr, config_.line_bytes, /*is_write=*/true, nullptr);
    return;
  }
  assert(adapter_ != nullptr);
  MemRequest req;
  req.type = MemRequest::Type::kWrite;
  req.addr = line_addr;
  req.bytes = config_.line_bytes;
  req.channel = Channel::kMem;
  adapter_->Submit(range->remote, req, [this](bool ok) {
    if (!ok) {
      ++stats_.writebacks_failed;
    }
  });
}

void MemoryHierarchy::MaybePrefetch(std::uint64_t miss_line) {
  if (config_.prefetch_enabled) {
    const std::int64_t stride =
        static_cast<std::int64_t>(miss_line) - static_cast<std::int64_t>(last_miss_line_);
    if (stride != 0 && stride == last_stride_) {
      for (int i = 1; i <= config_.prefetch_degree; ++i) {
        const std::uint64_t target =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(miss_line) + stride * i);
        if (RangeFor(target) == nullptr || l2_.Contains(target) || l1_.Contains(target)) {
          continue;
        }
        ++stats_.prefetches_issued;
        MissContext ctx{target, /*is_write=*/false, engine_->Now(), nullptr,
                        /*is_prefetch=*/true};
        StartMiss(std::move(ctx), config_.l1_latency + config_.l2_latency);
      }
    }
    last_stride_ = stride;
  }
  last_miss_line_ = miss_line;
}

void MemoryHierarchy::AccessRange(std::uint64_t addr, std::uint64_t bytes, bool is_write,
                                  std::function<void()> done) {
  if (bytes == 0) {
    if (done) {
      engine_->Schedule(0, std::move(done));
    }
    return;
  }
  const std::uint64_t first = l1_.LineBase(addr);
  const std::uint64_t last = l1_.LineBase(addr + bytes - 1);
  const auto count = std::make_shared<std::uint64_t>((last - first) / config_.line_bytes + 1);
  auto on_line = [count, done = std::move(done)] {
    if (--*count == 0 && done) {
      done();
    }
  };
  for (std::uint64_t line = first; line <= last; line += config_.line_bytes) {
    Access(line, is_write, on_line);
  }
}

bool MemoryHierarchy::InvalidateLine(std::uint64_t addr, bool* was_dirty) {
  bool dirty = false;
  bool present = false;
  bool d = false;
  if (l1_.Invalidate(addr, &d)) {
    present = true;
    dirty = dirty || d;
  }
  if (l2_.Invalidate(addr, &d)) {
    present = true;
    dirty = dirty || d;
  }
  if (was_dirty != nullptr) {
    *was_dirty = dirty;
  }
  return present;
}

void MemoryHierarchy::FlushLine(std::uint64_t addr, std::function<void()> done) {
  const std::uint64_t line = l1_.LineBase(addr);
  const bool dirty = l1_.IsDirty(line) || l2_.IsDirty(line);
  l1_.CleanLine(line);
  l2_.CleanLine(line);
  if (!dirty) {
    if (done) {
      engine_->Schedule(0, std::move(done));
    }
    return;
  }
  const AddressRange* range = RangeFor(line);
  assert(range != nullptr);
  ++stats_.writebacks_to_memory;
  if (range->IsLocal()) {
    range->local->Access(line, config_.line_bytes, /*is_write=*/true, std::move(done));
    return;
  }
  assert(adapter_ != nullptr);
  MemRequest req;
  req.type = MemRequest::Type::kWrite;
  req.addr = line;
  req.bytes = config_.line_bytes;
  req.channel = Channel::kMem;
  adapter_->Submit(range->remote, req, [this, line, done = std::move(done)](bool ok) {
    if (!ok) {
      // The store is not durable: dirty the line again wherever it is still
      // cached, so the next flush or eviction writes it back.
      ++stats_.writebacks_failed;
      l1_.MarkDirty(line);
      l2_.MarkDirty(line);
    }
    if (done) {
      done();
    }
  });
}

bool MemoryHierarchy::LinePresent(std::uint64_t addr) const {
  return l1_.Contains(addr) || l2_.Contains(addr);
}

}  // namespace unifab
