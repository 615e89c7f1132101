// Unified active heap: host-assisted, memory-node-type-conscious data
// placement (FCC DP#2).
//
// The heap instantiates memory bins from every reachable tier (host-local
// DRAM plus each fabric-attached node), allocates objects into size-class
// bins, profiles per-object access temperature, and transparently migrates
// objects between tiers — hot objects climb toward host DRAM (where the
// processor's caches accelerate them further), cold objects sink to fabric
// memory. Data movement uses eTrans, so migrations consume real fabric
// bandwidth and respect the central arbiter's throttling.
//
// Object *contents* are shadowed host-side so applications (examples/) can
// exchange real values while all timing flows through the simulated memory
// hierarchy.

#ifndef SRC_CORE_HEAP_H_
#define SRC_CORE_HEAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/etrans.h"
#include "src/mem/hierarchy.h"
#include "src/mem/memnode.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

class SwitchMemClient;  // src/fabric/switch/mem_agent.h

using ObjectId = std::uint64_t;
inline constexpr ObjectId kInvalidObject = 0;

// One memory tier the heap can place objects in.
struct MemTier {
  std::string name;
  MemoryNodeCaps caps;
  std::uint64_t base = 0;      // address-map base (as seen by host cores)
  std::uint64_t capacity = 0;  // bytes available to the heap
  int rank = 0;                // 0 = fastest; migration moves along ranks
};

struct HeapConfig {
  std::vector<std::uint32_t> size_classes = {64,    128,   256,    512,   1024,
                                             4096,  16384, 65536,  262144};
  Tick epoch_length = FromUs(100.0);
  double ewma_alpha = 0.5;            // temperature <- alpha*new + (1-alpha)*old
  double promote_threshold = 4.0;     // temperature that earns promotion
  double demote_threshold = 0.5;      // temperature that risks demotion
  double high_watermark = 0.9;        // tier occupancy that triggers demotion
  std::uint64_t migration_budget_bytes = 1 << 20;  // per epoch
  bool migration_enabled = true;
};

// Per epoch and per direction (hot/cold), at most this many candidates
// reach the migration policy: the hottest and the coldest by (temperature,
// id). Heaps of up to this many objects behave as if uncapped.
inline constexpr std::size_t kMaxEpochCandidates = 32768;

struct ObjectInfo {
  ObjectId id = kInvalidObject;
  std::uint64_t addr = 0;
  // Fabric-virtual address of the object's range when switch-resident
  // memory control is attached (0 otherwise). Stable across migrations;
  // `addr` tracks the current physical placement.
  std::uint64_t vaddr = 0;
  std::uint32_t size = 0;
  int tier = -1;
  double temperature = 0.0;          // EWMA of per-epoch access counts
  std::uint64_t epoch_accesses = 0;  // accesses in the open epoch
  bool migrating = false;
};

// Synchronous outcome of Migrate(); the async `done` callback still reports
// whether the copy (and, under switch-mem, the commit) went through.
enum class MigrateResult : std::uint8_t {
  kStarted,       // migration admitted; `done` will fire
  kBusy,          // a migration of this object is already in flight
  kNoSuchObject,  // unknown/freed id
  kSameTier,      // src == dst
  kNoSpace,       // destination tier cannot carve the block
};

struct HeapStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t failed_allocations = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t migrations_failed = 0;  // eTrans aborted; object rolled back to src
  std::uint64_t epochs = 0;
  // Temperature profiling, registered under "profiler/".
  std::uint64_t folds = 0;            // RunEpoch passes
  std::uint64_t hot_candidates = 0;   // cumulative, across folds
  std::uint64_t cold_candidates = 0;  // cumulative, across folds

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// The epoch policy: temperature-driven promote/demote along tier ranks.
// Returns the objects to move this epoch.
class TemperaturePolicy {
 public:
  struct Move {
    ObjectId object;
    int dst_tier;
  };

  static std::vector<Move> Decide(const std::vector<ObjectInfo>& objects,
                                  const std::vector<MemTier>& tiers,
                                  const std::vector<std::uint64_t>& tier_used,
                                  const HeapConfig& config);
};

class UnifiedHeap {
 public:
  // `core` performs the timed load/store path; `agent`/`etrans` move data.
  UnifiedHeap(Engine* engine, const HeapConfig& config, MemoryHierarchy* core,
              MigrationAgent* agent, ETransEngine* etrans);

  // Tiers must be added before the first allocation; rank 0 first.
  int AddTier(const MemTier& tier);

  // Allocates `size` bytes; `tier_hint` < 0 picks the fastest tier with
  // space. Returns kInvalidObject when every allowed tier is full.
  ObjectId Allocate(std::uint32_t size, int tier_hint = -1);
  void Free(ObjectId id);

  // Timed whole-object access. Completion fires when the object's bytes are
  // readable/durable in the current placement.
  void Read(ObjectId id, std::function<void()> done);
  void Write(ObjectId id, std::function<void()> done);

  // Shadow content access (untimed; pair with Read/Write for timing).
  std::vector<std::byte>& Shadow(ObjectId id);

  // Explicit migration (the epoch policy calls this too). Rejections
  // (anything but kStarted) fire `done(false)` before returning so callers
  // that only watch the callback keep working.
  MigrateResult Migrate(ObjectId id, int dst_tier, std::function<void(bool ok)> done);

  // Delegates translation and migration commits to a switch-resident memory
  // agent: objects get stable fabric-virtual addresses, timed accesses
  // resolve placement through the adapter's translation cache, and a
  // migration's source block is only reclaimed once the agent has committed
  // the new placement and every cached translation is invalidated. Must be
  // called before the first allocation. `va_base` anchors this heap's
  // virtual range (heaps sharing an agent need disjoint bases).
  void AttachSwitchMem(SwitchMemClient* client, std::uint64_t va_base);

  // Runs one profiling/migration epoch now. Normally invoked lazily when
  // epoch_length has elapsed, checked on each access. Folds every object's
  // open-epoch access count into its temperature, then (when migration is
  // enabled) hands the policy the hot candidates, hottest first, followed
  // by the cold ones, coldest first; ties break on id.
  void RunEpoch();

  ObjectInfo Info(ObjectId id) const;
  int TierOf(ObjectId id) const;
  std::uint64_t TierUsed(int tier) const { return tier_used_[static_cast<std::size_t>(tier)]; }
  const MemTier& Tier(int tier) const { return tiers_[static_cast<std::size_t>(tier)]; }
  int num_tiers() const { return static_cast<int>(tiers_.size()); }
  const HeapStats& stats() const { return stats_; }
  std::size_t live_objects() const { return objects_.size(); }
  // One sample per live object, rebuilt at the latest epoch.
  const Summary& epoch_temperature() const { return epoch_temperature_; }
  SwitchMemClient* switch_mem() const { return switch_mem_; }

 private:
  struct Bin {
    std::uint32_t size_class;
    std::vector<std::uint64_t> free_list;
  };

  struct TierState {
    std::vector<Bin> bins;      // one per size class
    std::uint64_t bump = 0;     // bytes carved from the tier so far
  };

  struct Object {
    ObjectInfo info;
    std::vector<std::byte> shadow;
  };

  // Tracks one in-flight migration; the audit check "migration_registry"
  // reconciles this registry against tier_migrating_src_ every event.
  struct InFlightMigration {
    std::uint64_t vaddr = 0;
    int src_tier = -1;
    int dst_tier = -1;
    std::uint32_t size_class = 0;
    bool freed = false;  // Free() arrived mid-migration; finish then reap
  };

  std::uint32_t ClassFor(std::uint32_t size) const;
  std::uint64_t CarveBlock(int tier, std::uint32_t size_class);  // 0 on failure
  void ReleaseBlock(int tier, std::uint32_t size_class, std::uint64_t addr);
  void Touch(Object& obj);
  void MaybeRunEpoch();
  Segment SegmentFor(const Object& obj) const;
  void BeginClaim(ObjectId id, const InFlightMigration& claim);
  void FinishClaim(ObjectId id);

  Engine* engine_;
  HeapConfig config_;
  MemoryHierarchy* core_;
  MigrationAgent* agent_;
  ETransEngine* etrans_;
  std::vector<MemTier> tiers_;
  std::vector<TierState> tier_state_;
  std::vector<std::uint64_t> tier_used_;
  // Size-class bytes whose source block is still carved for an in-flight
  // migration out of each tier (the object itself already counts at its
  // eagerly recorded destination). Balances the per-tier byte conservation
  // the auditor checks.
  std::vector<std::uint64_t> tier_migrating_src_;
  std::uint64_t migrations_in_flight_ = 0;
  std::unordered_map<ObjectId, InFlightMigration> inflight_;
  std::unordered_map<ObjectId, Object> objects_;
  Summary epoch_temperature_;
  SwitchMemClient* switch_mem_ = nullptr;
  std::uint64_t va_base_ = 0;
  std::uint64_t va_bump_ = 0;  // monotonic; vaddrs are never reused
  ObjectId next_id_ = 1;
  Tick next_epoch_at_ = 0;
  HeapStats stats_;
  MetricGroup metrics_;
  AuditScope audit_;  // after the state the checks read

  friend class AuditTestPeer;
};

}  // namespace unifab

#endif  // SRC_CORE_HEAP_H_
