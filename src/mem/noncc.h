// Fabric-attached non-CC-NUMA memory node (paper §3 Difference #2; cf.
// Intel SCC, IBM Cell SPE).
//
// Hardware keeps no coherence: each host caches remote blocks in a local
// software-managed cache and must flush/invalidate explicitly. The hardware
// stays simple (plain reads/writes through the FHA) while correctness moves
// into software — exactly the trade-off the paper describes.
//
// Staleness instrumentation: a SharedStateOracle tracks, outside the timed
// simulation, the version each write produces, letting tests and examples
// observe when a host reads stale data because it skipped an invalidate.

#ifndef SRC_MEM_NONCC_H_
#define SRC_MEM_NONCC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/fabric/adapter.h"
#include "src/mem/cache.h"
#include "src/mem/memnode.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

// Ground-truth version store shared by all ports of one non-CC node.
class SharedStateOracle {
 public:
  std::uint64_t Current(std::uint64_t block) const {
    auto it = versions_.find(block);
    return it == versions_.end() ? 0 : it->second;
  }
  std::uint64_t Bump(std::uint64_t block) { return ++versions_[block]; }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> versions_;
};

struct NonCcConfig {
  std::uint32_t block_bytes = 64;
  CacheConfig sw_cache{256 * 1024, 64, 8};
  Tick sw_cache_hit_latency = FromNs(20.0);  // software lookup cost
};

struct NonCcStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_buffered = 0;
  std::uint64_t flushes = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t stale_reads = 0;  // read served from a cached copy older than truth
  std::uint64_t failed_fetches = 0;  // read misses the fabric failed (nothing cached)
  std::uint64_t failed_flushes = 0;  // block writes the fabric failed

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Host-side software-coherence port onto a remote expander partition.
class NonCcPort {
 public:
  NonCcPort(Engine* engine, const NonCcConfig& config, HostAdapter* adapter, PbrId remote_node,
            SharedStateOracle* oracle, std::string name);

  // Reads a block: local software cache first, else fetch. `done` receives
  // whether the value served was stale w.r.t. the oracle. A fetch the fabric
  // fails caches nothing and still completes (counted in failed_fetches).
  void Read(std::uint64_t addr, std::function<void(bool stale)> done);

  // Writes locally (write-back). Data reaches the remote node only on Flush.
  void Write(std::uint64_t addr, std::function<void()> done);

  // Pushes one dirty block to the remote node. `done` fires when the write
  // is durable or has failed; a failed write does not advance the oracle
  // and leaves the block dirty for the next flush.
  void FlushBlock(std::uint64_t addr, std::function<void()> done);

  // Pushes all dirty blocks; `done` fires when the last write is durable.
  void FlushAll(std::function<void()> done);

  // Drops cached copies so the next read refetches (the software
  // counterpart of a hardware invalidate).
  void InvalidateBlock(std::uint64_t addr);

  bool Holds(std::uint64_t addr) const { return cache_.Contains(addr); }
  std::uint64_t CachedVersion(std::uint64_t addr) const;

  const NonCcStats& stats() const { return stats_; }
  MemoryNodeCaps Caps() const;

 private:
  // Writes back a dirty victim the cache just evicted.
  void WritebackVictim(std::uint64_t block);

  Engine* engine_;
  NonCcConfig config_;
  HostAdapter* adapter_;
  PbrId remote_;
  SharedStateOracle* oracle_;
  std::string name_;
  SetAssocCache cache_;
  std::unordered_map<std::uint64_t, std::uint64_t> fetched_version_;
  NonCcStats stats_;
  MetricGroup metrics_;
};

}  // namespace unifab

#endif  // SRC_MEM_NONCC_H_
