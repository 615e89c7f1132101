#include "src/mem/noncc.h"

#include <utility>
#include <vector>

namespace unifab {

void NonCcStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "read_hits", [this] { return read_hits; });
  group.AddCounterFn(prefix + "read_misses", [this] { return read_misses; });
  group.AddCounterFn(prefix + "write_buffered", [this] { return write_buffered; });
  group.AddCounterFn(prefix + "flushes", [this] { return flushes; });
  group.AddCounterFn(prefix + "invalidates", [this] { return invalidates; });
  group.AddCounterFn(prefix + "stale_reads", [this] { return stale_reads; });
  group.AddCounterFn(prefix + "failed_fetches", [this] { return failed_fetches; });
  group.AddCounterFn(prefix + "failed_flushes", [this] { return failed_flushes; });
}

NonCcPort::NonCcPort(Engine* engine, const NonCcConfig& config, HostAdapter* adapter,
                     PbrId remote_node, SharedStateOracle* oracle, std::string name)
    : engine_(engine),
      config_(config),
      adapter_(adapter),
      remote_(remote_node),
      oracle_(oracle),
      name_(std::move(name)),
      cache_(config.sw_cache) {
  metrics_ = MetricGroup(&engine_->metrics(), "mem/noncc/" + name_);
  stats_.BindTo(metrics_);
  cache_.stats().BindTo(metrics_, "cache/");
}

std::uint64_t NonCcPort::CachedVersion(std::uint64_t addr) const {
  auto it = fetched_version_.find(cache_.LineBase(addr));
  return it == fetched_version_.end() ? 0 : it->second;
}

void NonCcPort::Read(std::uint64_t addr, std::function<void(bool)> done) {
  const std::uint64_t block = cache_.LineBase(addr);
  if (cache_.Access(block, /*is_write=*/false)) {
    ++stats_.read_hits;
    const bool stale =
        !cache_.IsDirty(block) && fetched_version_[block] < oracle_->Current(block);
    if (stale) {
      ++stats_.stale_reads;
    }
    engine_->Schedule(config_.sw_cache_hit_latency, [done = std::move(done), stale] {
      if (done) {
        done(stale);
      }
    });
    return;
  }
  ++stats_.read_misses;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.addr = block;
  req.bytes = config_.block_bytes;
  adapter_->Submit(remote_, req, [this, block, done = std::move(done)](bool ok) {
    if (!ok) {
      ++stats_.failed_fetches;
    } else {
      // Fetch observes the remote truth as of completion time.
      fetched_version_[block] = oracle_->Current(block);
      if (auto ev = cache_.Insert(block, /*dirty=*/false); ev.has_value() && ev->dirty) {
        WritebackVictim(ev->line_addr);
      }
    }
    if (done) {
      done(false);
    }
  });
}

void NonCcPort::Write(std::uint64_t addr, std::function<void()> done) {
  const std::uint64_t block = cache_.LineBase(addr);
  ++stats_.write_buffered;
  if (auto ev = cache_.Insert(block, /*dirty=*/true); ev.has_value() && ev->dirty) {
    WritebackVictim(ev->line_addr);
  }
  engine_->Schedule(config_.sw_cache_hit_latency, std::move(done));
}

void NonCcPort::WritebackVictim(std::uint64_t block) {
  // A dirty victim must reach the node or its writes are lost; software
  // runtimes schedule this flush themselves. The oracle advances at issue.
  MemRequest wb;
  wb.type = MemRequest::Type::kWrite;
  wb.addr = block;
  wb.bytes = config_.block_bytes;
  adapter_->Submit(remote_, wb, [this](bool ok) {
    if (!ok) {
      ++stats_.failed_flushes;
    }
  });
  oracle_->Bump(block);
  ++stats_.flushes;
}

void NonCcPort::FlushBlock(std::uint64_t addr, std::function<void()> done) {
  const std::uint64_t block = cache_.LineBase(addr);
  if (!cache_.IsDirty(block)) {
    engine_->Schedule(0, std::move(done));
    return;
  }
  cache_.CleanLine(block);
  ++stats_.flushes;
  MemRequest wb;
  wb.type = MemRequest::Type::kWrite;
  wb.addr = block;
  wb.bytes = config_.block_bytes;
  adapter_->Submit(remote_, wb, [this, block, done = std::move(done)](bool ok) {
    if (ok) {
      fetched_version_[block] = oracle_->Bump(block);
    } else {
      ++stats_.failed_flushes;
      cache_.MarkDirty(block);  // not durable: the next flush retries it
    }
    if (done) {
      done();
    }
  });
}

void NonCcPort::FlushAll(std::function<void()> done) {
  const std::vector<std::uint64_t> dirty = cache_.ValidLines(/*dirty_only=*/true);
  if (dirty.empty()) {
    engine_->Schedule(0, std::move(done));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(dirty.size());
  for (std::uint64_t block : dirty) {
    FlushBlock(block, [remaining, done] {
      if (--*remaining == 0 && done) {
        done();
      }
    });
  }
}

void NonCcPort::InvalidateBlock(std::uint64_t addr) {
  ++stats_.invalidates;
  const std::uint64_t block = cache_.LineBase(addr);
  cache_.Invalidate(block);
  fetched_version_.erase(block);
}

MemoryNodeCaps NonCcPort::Caps() const {
  MemoryNodeCaps caps;
  caps.type = MemoryNodeType::kNonCcNuma;
  caps.node = remote_;
  caps.capacity_bytes = 0;  // capacity owned by the expander behind remote_
  caps.hardware_coherent = false;
  caps.has_processing = false;
  caps.supports_sharing = true;
  caps.typical_read_latency = FromNs(1575.3);
  caps.typical_write_latency = FromNs(20.0);  // write-back buffering
  return caps;
}

}  // namespace unifab
