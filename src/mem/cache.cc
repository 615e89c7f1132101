#include "src/mem/cache.h"

#include <bit>
#include <cassert>

namespace unifab {
namespace {

bool IsPowerOfTwo(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

void CacheStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "hits", [this] { return hits; });
  group.AddCounterFn(prefix + "misses", [this] { return misses; });
  group.AddCounterFn(prefix + "evictions", [this] { return evictions; });
  group.AddCounterFn(prefix + "writebacks", [this] { return writebacks; });
  group.AddGaugeFn(prefix + "hit_rate", [this] { return HitRate(); });
}

SetAssocCache::SetAssocCache(const CacheConfig& config) : config_(config) {
  assert(IsPowerOfTwo(config_.line_bytes));
  assert(config_.ways >= 1);
  assert(config_.size_bytes >= static_cast<std::uint64_t>(config_.line_bytes) * config_.ways);
  num_sets_ = config_.size_bytes / config_.line_bytes / config_.ways;
  assert(IsPowerOfTwo(num_sets_));
  line_mask_ = config_.line_bytes - 1;
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(num_sets_));
  ways_.resize(num_sets_ * config_.ways);
}

std::uint64_t SetAssocCache::SetOf(std::uint64_t addr) const {
  return (addr >> line_shift_) & (num_sets_ - 1);
}

std::uint64_t SetAssocCache::TagOf(std::uint64_t addr) const {
  return addr >> tag_shift_;
}

SetAssocCache::Way* SetAssocCache::FindWay(std::uint64_t addr) {
  const std::uint64_t set = SetOf(addr);
  const std::uint64_t tag = TagOf(addr);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Way& way = ways_[set * config_.ways + w];
    if (way.valid && way.tag == tag) {
      return &way;
    }
  }
  return nullptr;
}

const SetAssocCache::Way* SetAssocCache::FindWay(std::uint64_t addr) const {
  return const_cast<SetAssocCache*>(this)->FindWay(addr);
}

bool SetAssocCache::Access(std::uint64_t addr, bool is_write) {
  Way* way = FindWay(addr);
  if (way == nullptr) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  way->lru = ++lru_clock_;
  if (is_write) {
    way->dirty = true;
  }
  return true;
}

bool SetAssocCache::Contains(std::uint64_t addr) const { return FindWay(addr) != nullptr; }

bool SetAssocCache::IsDirty(std::uint64_t addr) const {
  const Way* way = FindWay(addr);
  return way != nullptr && way->dirty;
}

std::optional<Eviction> SetAssocCache::Insert(std::uint64_t addr, bool dirty) {
  if (Way* existing = FindWay(addr); existing != nullptr) {
    existing->lru = ++lru_clock_;
    existing->dirty = existing->dirty || dirty;
    return std::nullopt;
  }

  const std::uint64_t set = SetOf(addr);
  Way* victim = nullptr;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Way& way = ways_[set * config_.ways + w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) {
      victim = &way;
    }
  }

  std::optional<Eviction> evicted;
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.writebacks;
    }
    evicted = Eviction{(victim->tag * num_sets_ + set) * config_.line_bytes, victim->dirty};
  }

  victim->valid = true;
  victim->dirty = dirty;
  victim->tag = TagOf(addr);
  victim->lru = ++lru_clock_;
  return evicted;
}

bool SetAssocCache::Invalidate(std::uint64_t addr, bool* was_dirty) {
  Way* way = FindWay(addr);
  if (way == nullptr) {
    return false;
  }
  if (was_dirty != nullptr) {
    *was_dirty = way->dirty;
  }
  way->valid = false;
  way->dirty = false;
  return true;
}

void SetAssocCache::CleanLine(std::uint64_t addr) {
  if (Way* way = FindWay(addr); way != nullptr) {
    way->dirty = false;
  }
}

void SetAssocCache::MarkDirty(std::uint64_t addr) {
  if (Way* way = FindWay(addr); way != nullptr) {
    way->dirty = true;
  }
}

std::vector<std::uint64_t> SetAssocCache::ValidLines(bool dirty_only) const {
  std::vector<std::uint64_t> lines;
  for (std::uint64_t set = 0; set < num_sets_; ++set) {
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      const Way& way = ways_[set * config_.ways + w];
      if (way.valid && (!dirty_only || way.dirty)) {
        lines.push_back((way.tag * num_sets_ + set) * config_.line_bytes);
      }
    }
  }
  return lines;
}

}  // namespace unifab
