// Functional set-associative cache with LRU replacement and write-back
// dirty tracking. Timing is composed by MemoryHierarchy; this class only
// answers hit/miss/eviction questions deterministically.

#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/metrics.h"

namespace unifab {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  // dirty evictions

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Result of inserting a line: the evicted victim, if any.
struct Eviction {
  std::uint64_t line_addr = 0;  // aligned base address of the victim line
  bool dirty = false;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& config);

  // Probes for the line containing `addr`. On a hit the line becomes MRU and
  // (for writes) dirty. Updates hit/miss stats.
  bool Access(std::uint64_t addr, bool is_write);

  // Peeks without disturbing LRU order or stats.
  bool Contains(std::uint64_t addr) const;

  // Whether the line containing `addr` is present and dirty.
  bool IsDirty(std::uint64_t addr) const;

  // Inserts the line containing `addr` (as MRU). Returns the victim if a
  // valid line had to be evicted. Inserting an already-present line just
  // refreshes it.
  std::optional<Eviction> Insert(std::uint64_t addr, bool dirty);

  // Removes the line containing `addr` if present. Returns true (plus its
  // dirtiness via `was_dirty`) when a line was invalidated.
  bool Invalidate(std::uint64_t addr, bool* was_dirty = nullptr);

  // Clears dirty bit (after an explicit flush wrote the line back).
  void CleanLine(std::uint64_t addr);

  // Sets the dirty bit of a present line without touching LRU order or
  // stats (a flush whose writeback failed hands the data back to the cache).
  void MarkDirty(std::uint64_t addr);

  // Returns the aligned base addresses of all valid (optionally: dirty-only)
  // lines. Used by flush-range operations and COMA replacement.
  std::vector<std::uint64_t> ValidLines(bool dirty_only = false) const;

  std::uint64_t LineBase(std::uint64_t addr) const { return addr & ~line_mask_; }
  std::uint32_t line_bytes() const { return config_.line_bytes; }
  std::uint64_t num_sets() const { return num_sets_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recent
  };

  std::uint64_t SetOf(std::uint64_t addr) const;
  std::uint64_t TagOf(std::uint64_t addr) const;
  Way* FindWay(std::uint64_t addr);
  const Way* FindWay(std::uint64_t addr) const;

  CacheConfig config_;
  std::uint64_t num_sets_;
  std::uint64_t line_mask_;
  unsigned line_shift_;  // log2(line_bytes)
  unsigned tag_shift_;   // log2(line_bytes * num_sets)
  std::uint64_t lru_clock_ = 0;
  std::vector<Way> ways_;  // num_sets_ * config_.ways, row-major by set
  CacheStats stats_;
};

}  // namespace unifab

#endif  // SRC_MEM_CACHE_H_
