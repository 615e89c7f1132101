// Host memory hierarchy: the synchronous load/store path of one core.
//
// Models paper §3 Difference #1: loads/stores are generated transparently by
// the cache hierarchy (miss from L2 -> memory read; victim flush -> memory
// write), the pipeline stalls for the duration, and the fabric throughput a
// core can drive is bounded by its outstanding-miss parallelism (MSHRs).
// Local DRAM and fabric-attached memory sit behind the same interface, which
// is exactly what makes a CXL memory expander "transparent" to software.

#ifndef SRC_MEM_HIERARCHY_H_
#define SRC_MEM_HIERARCHY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/fabric/adapter.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

// Where a physical address range is backed.
struct AddressRange {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  DramDevice* local = nullptr;      // set for host-local DIMMs
  PbrId remote = kInvalidPbrId;     // set for fabric-attached memory
  bool IsLocal() const { return local != nullptr; }
  bool Contains(std::uint64_t addr) const { return addr >= base && addr < base + size; }
};

struct HierarchyConfig {
  CacheConfig l1{32 * 1024, 64, 8};
  CacheConfig l2{1 * 1024 * 1024, 64, 16};

  // Latency to *return* from a hit at each level (cumulative path pieces).
  Tick l1_latency = FromNs(5.4);
  Tick l2_latency = FromNs(8.2);    // added on top of the L1 probe
  Tick mem_ctrl_latency = FromNs(38.0);  // controller/on-chip network to DRAM

  // Minimum gap between two accesses *served by* the same level (bandwidth).
  Tick l1_interval = FromNs(2.8);
  Tick l2_interval = FromNs(6.9);

  // Outstanding-miss limit: how many memory-level accesses can be in flight.
  std::uint32_t mshrs = 4;

  // Simple stride prefetcher (DP#1: HW-assisted prefetching hides fabric
  // latency). Prefetches fill the L2.
  bool prefetch_enabled = false;
  int prefetch_degree = 2;

  std::uint32_t line_bytes = 64;
};

struct HierarchyStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t local_mem_accesses = 0;
  std::uint64_t remote_mem_accesses = 0;
  std::uint64_t writebacks_to_memory = 0;
  std::uint64_t writebacks_failed = 0;  // writebacks and flushes the fabric failed
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_hits = 0;
  // Memory-level misses (demand and prefetch) that ended: with a line fill,
  // or poisoned because the fabric failed the fetch.
  std::uint64_t misses_completed = 0;
  std::uint64_t poisoned = 0;
  Summary access_latency_ns;  // demand accesses that got their data, issue to completion

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// One core's cache/memory stack. Multiple hierarchies may share a DramDevice
// (local socket) and a HostAdapter (the host's FHA).
class MemoryHierarchy {
 public:
  MemoryHierarchy(Engine* engine, const HierarchyConfig& config, std::string name);

  // Non-movable: components capture `this` in scheduled callbacks.
  MemoryHierarchy(const MemoryHierarchy&) = delete;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = delete;

  // Address-space wiring.
  void MapLocal(std::uint64_t base, std::uint64_t size, DramDevice* dram);
  void MapRemote(std::uint64_t base, std::uint64_t size, PbrId node);
  void SetFabricAdapter(HostAdapter* adapter) { adapter_ = adapter; }

  // Issues one cacheline access. `done` fires once, when the load would
  // retire / the store is globally visible. A miss the fabric fails (link
  // epoch change, MSHR deadline) retires poisoned instead: `done` still
  // fires, the line is not filled and stats().poisoned counts it.
  void Access(std::uint64_t addr, bool is_write, std::function<void()> done);

  // Splits an arbitrary [addr, addr+bytes) range into line accesses and
  // fires `done` when all complete.
  void AccessRange(std::uint64_t addr, std::uint64_t bytes, bool is_write,
                   std::function<void()> done);

  // Invalidates the line everywhere (coherence protocols / software flush).
  // Returns true if any level held the line; `was_dirty` reports whether a
  // dirty copy was discarded.
  bool InvalidateLine(std::uint64_t addr, bool* was_dirty = nullptr);

  // Writes a dirty line back to its backing store (if dirty) and cleans it.
  // `done` fires when the writeback is durable, or has failed (counted in
  // stats().writebacks_failed); a failed writeback leaves the line dirty
  // wherever it is still cached.
  void FlushLine(std::uint64_t addr, std::function<void()> done);

  bool LinePresent(std::uint64_t addr) const;

  const HierarchyConfig& config() const { return config_; }
  const HierarchyStats& stats() const { return stats_; }
  const SetAssocCache& l1() const { return l1_; }
  const SetAssocCache& l2() const { return l2_; }
  const std::string& name() const { return name_; }
  std::uint32_t MshrsInUse() const { return mshrs_in_use_; }

 private:
  struct MissContext {
    std::uint64_t line_addr;
    bool is_write;
    Tick issued_at;
    std::function<void()> done;
    bool is_prefetch;
  };

  const AddressRange* RangeFor(std::uint64_t addr) const;
  void StartMiss(MissContext ctx, Tick path_latency);
  void IssueMemoryAccess(MissContext ctx, Tick path_latency);
  void FinishMiss(const MissContext& ctx, bool ok);
  void FillLine(std::uint64_t line_addr, bool dirty);
  void WritebackVictim(std::uint64_t line_addr);
  void MaybePrefetch(std::uint64_t miss_line);
  Tick ReserveLevel(Tick& next_free, Tick interval);

  Engine* engine_;
  HierarchyConfig config_;
  std::string name_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  std::vector<AddressRange> ranges_;
  HostAdapter* adapter_ = nullptr;

  Tick l1_next_free_ = 0;
  Tick l2_next_free_ = 0;

  std::uint32_t mshrs_in_use_ = 0;
  std::deque<std::pair<MissContext, Tick>> waiting_misses_;

  // Stride prefetcher state.
  std::uint64_t last_miss_line_ = 0;
  std::int64_t last_stride_ = 0;
  std::unordered_set<std::uint64_t> prefetched_lines_;

  HierarchyStats stats_;
  MetricGroup metrics_;
  AuditScope audit_;  // after the state the checks read
};

}  // namespace unifab

#endif  // SRC_MEM_HIERARCHY_H_
