#include "src/core/heap.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/fabric/switch/mem_agent.h"

namespace unifab {
namespace {

// A promote or demote candidate of one epoch. The sort key is copied so
// sorting never dereferences `info`, which points into the object table
// (nothing inserts into or erases from it during an epoch).
struct Candidate {
  double temperature;
  ObjectId id;
  const ObjectInfo* info;
};

// Leaves the first kMaxEpochCandidates of `v` in `before` order, sorted.
template <typename Before>
void SortCapped(std::vector<Candidate>& v, Before before) {
  if (v.size() > kMaxEpochCandidates) {
    const auto cap = static_cast<std::ptrdiff_t>(kMaxEpochCandidates);
    std::nth_element(v.begin(), v.begin() + cap, v.end(), before);
    v.resize(kMaxEpochCandidates);
  }
  std::sort(v.begin(), v.end(), before);
}

}  // namespace

std::vector<TemperaturePolicy::Move> TemperaturePolicy::Decide(
    const std::vector<ObjectInfo>& objects, const std::vector<MemTier>& tiers,
    const std::vector<std::uint64_t>& tier_used, const HeapConfig& config) {
  std::vector<Move> moves;
  std::uint64_t budget = config.migration_budget_bytes;

  // Promotion: hottest first.
  std::vector<const ObjectInfo*> hot;
  for (const auto& obj : objects) {
    if (obj.tier > 0 && !obj.migrating && obj.temperature >= config.promote_threshold) {
      hot.push_back(&obj);
    }
  }
  std::sort(hot.begin(), hot.end(), [](const ObjectInfo* a, const ObjectInfo* b) {
    return a->temperature > b->temperature;
  });

  // Track hypothetical occupancy so one epoch doesn't overshoot a tier.
  std::vector<std::uint64_t> used = tier_used;
  for (const ObjectInfo* obj : hot) {
    if (budget < obj->size) {
      break;
    }
    const int dst = obj->tier - 1;
    const auto dsti = static_cast<std::size_t>(dst);
    if (used[dsti] + obj->size > tiers[dsti].capacity) {
      continue;  // destination full; demotion below may free space for later epochs
    }
    moves.push_back(Move{obj->id, dst});
    used[dsti] += obj->size;
    budget -= obj->size;
  }

  // Demotion: coldest first, only from tiers above the high watermark.
  std::vector<const ObjectInfo*> cold;
  for (const auto& obj : objects) {
    if (obj.tier + 1 < static_cast<int>(tiers.size()) && !obj.migrating &&
        obj.temperature <= config.demote_threshold) {
      cold.push_back(&obj);
    }
  }
  std::sort(cold.begin(), cold.end(), [](const ObjectInfo* a, const ObjectInfo* b) {
    return a->temperature < b->temperature;
  });
  for (const ObjectInfo* obj : cold) {
    const auto srci = static_cast<std::size_t>(obj->tier);
    const double occupancy =
        static_cast<double>(used[srci]) / static_cast<double>(tiers[srci].capacity);
    if (occupancy < config.high_watermark) {
      continue;
    }
    if (budget < obj->size) {
      break;
    }
    const int dst = obj->tier + 1;
    const auto dsti = static_cast<std::size_t>(dst);
    if (used[dsti] + obj->size > tiers[dsti].capacity) {
      continue;
    }
    moves.push_back(Move{obj->id, dst});
    used[dsti] += obj->size;
    used[srci] -= obj->size;
    budget -= obj->size;
  }
  return moves;
}

void HeapStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "allocations", [this] { return allocations; });
  group.AddCounterFn(prefix + "frees", [this] { return frees; });
  group.AddCounterFn(prefix + "failed_allocations", [this] { return failed_allocations; });
  group.AddCounterFn(prefix + "reads", [this] { return reads; });
  group.AddCounterFn(prefix + "writes", [this] { return writes; });
  group.AddCounterFn(prefix + "promotions", [this] { return promotions; });
  group.AddCounterFn(prefix + "demotions", [this] { return demotions; });
  group.AddCounterFn(prefix + "bytes_migrated", [this] { return bytes_migrated; });
  group.AddCounterFn(prefix + "migrations_failed", [this] { return migrations_failed; });
  group.AddCounterFn(prefix + "epochs", [this] { return epochs; });
  group.AddCounterFn(prefix + "profiler/folds", [this] { return folds; });
  group.AddCounterFn(prefix + "profiler/hot_candidates", [this] { return hot_candidates; });
  group.AddCounterFn(prefix + "profiler/cold_candidates", [this] { return cold_candidates; });
}

UnifiedHeap::UnifiedHeap(Engine* engine, const HeapConfig& config, MemoryHierarchy* core,
                         MigrationAgent* agent, ETransEngine* etrans)
    : engine_(engine),
      config_(config),
      core_(core),
      agent_(agent),
      etrans_(etrans) {
  next_epoch_at_ = engine_->Now() + config_.epoch_length;
  metrics_ = MetricGroup(&engine_->metrics(), "core/heap");
  stats_.BindTo(metrics_);
  metrics_.AddGaugeFn("profiler/entries", [this] { return static_cast<double>(objects_.size()); });
  metrics_.AddSummaryFn("profiler/epoch_temperature", [this] { return &epoch_temperature_; });
  audit_ = AuditScope(&engine_->audit(), "core/heap");
  // Per-tier byte conservation: live objects placed in a tier plus the
  // still-carved source blocks of in-flight migrations account for every
  // used byte, used + free-listed bytes account for every carved byte, and
  // nothing exceeds the tier's capacity.
  audit_.AddCheck("tier_occupancy", [this]() -> std::string {
    std::vector<std::uint64_t> live(tiers_.size(), 0);
    for (const auto& [id, obj] : objects_) {
      const int tier = obj.info.tier;
      if (tier < 0 || tier >= num_tiers()) {
        return "object " + std::to_string(id) + " placed in invalid tier " +
               std::to_string(tier);
      }
      live[static_cast<std::size_t>(tier)] += ClassFor(obj.info.size);
    }
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      if (tier_used_[t] > tiers_[t].capacity) {
        return "tier " + std::to_string(t) + ": used " + std::to_string(tier_used_[t]) +
               " > capacity " + std::to_string(tiers_[t].capacity);
      }
      if (live[t] + tier_migrating_src_[t] != tier_used_[t]) {
        return "tier " + std::to_string(t) + ": live(" + std::to_string(live[t]) +
               ") + migrating_src(" + std::to_string(tier_migrating_src_[t]) +
               ") != used(" + std::to_string(tier_used_[t]) + ")";
      }
      std::uint64_t free_bytes = 0;
      for (const auto& bin : tier_state_[t].bins) {
        free_bytes += bin.free_list.size() * bin.size_class;
      }
      if (tier_used_[t] + free_bytes != tier_state_[t].bump) {
        return "tier " + std::to_string(t) + ": used(" + std::to_string(tier_used_[t]) +
               ") + free(" + std::to_string(free_bytes) + ") != carved(" +
               std::to_string(tier_state_[t].bump) + ")";
      }
    }
    return {};
  });
  // Every object is in exactly one tier or marked migrating; freed-mid-
  // migration objects keep their in-flight slot until the copy resolves,
  // hence <= rather than ==.
  audit_.AddCheck("migration_accounting", [this]() -> std::string {
    std::uint64_t marked = 0;
    for (const auto& [id, obj] : objects_) {
      if (obj.info.migrating) {
        ++marked;
      }
    }
    if (marked > migrations_in_flight_) {
      return std::to_string(marked) + " objects marked migrating but only " +
             std::to_string(migrations_in_flight_) + " migrations in flight";
    }
    return {};
  });
  // The in-flight migration registry is the authoritative record of every
  // source-block claim: its per-tier size-class sums must equal
  // tier_migrating_src_ exactly, and its population must equal the in-flight
  // count. A leak here is the bug class where a rejected or rolled-back
  // migration strands source bytes forever.
  audit_.AddCheck("migration_registry", [this]() -> std::string {
    if (inflight_.size() != migrations_in_flight_) {
      return "registry has " + std::to_string(inflight_.size()) + " entries but " +
             std::to_string(migrations_in_flight_) + " migrations in flight";
    }
    std::vector<std::uint64_t> claimed(tiers_.size(), 0);
    for (const auto& [id, m] : inflight_) {
      if (m.src_tier < 0 || m.src_tier >= num_tiers()) {
        return "migration of object " + std::to_string(id) + " claims invalid src tier " +
               std::to_string(m.src_tier);
      }
      claimed[static_cast<std::size_t>(m.src_tier)] += m.size_class;
    }
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      if (claimed[t] != tier_migrating_src_[t]) {
        return "tier " + std::to_string(t) + ": registry claims " +
               std::to_string(claimed[t]) + " migrating-src bytes but ledger has " +
               std::to_string(tier_migrating_src_[t]);
      }
    }
    return {};
  });
}

void UnifiedHeap::AttachSwitchMem(SwitchMemClient* client, std::uint64_t va_base) {
  assert(objects_.empty() && "attach switch-mem before the first allocation");
  switch_mem_ = client;
  va_base_ = va_base;
  va_bump_ = 0;
}

int UnifiedHeap::AddTier(const MemTier& tier) {
  tiers_.push_back(tier);
  TierState state;
  for (std::uint32_t sc : config_.size_classes) {
    state.bins.push_back(Bin{sc, {}});
  }
  tier_state_.push_back(std::move(state));
  tier_used_.push_back(0);
  tier_migrating_src_.push_back(0);
  return static_cast<int>(tiers_.size()) - 1;
}

std::uint32_t UnifiedHeap::ClassFor(std::uint32_t size) const {
  for (std::uint32_t sc : config_.size_classes) {
    if (size <= sc) {
      return sc;
    }
  }
  return 0;  // larger than the largest class: unsupported
}

std::uint64_t UnifiedHeap::CarveBlock(int tier, std::uint32_t size_class) {
  const auto ti = static_cast<std::size_t>(tier);
  TierState& state = tier_state_[ti];
  for (auto& bin : state.bins) {
    if (bin.size_class == size_class && !bin.free_list.empty()) {
      const std::uint64_t addr = bin.free_list.back();
      bin.free_list.pop_back();
      return addr;
    }
  }
  if (state.bump + size_class > tiers_[ti].capacity) {
    return 0;
  }
  const std::uint64_t addr = tiers_[ti].base + state.bump;
  state.bump += size_class;
  return addr;
}

void UnifiedHeap::ReleaseBlock(int tier, std::uint32_t size_class, std::uint64_t addr) {
  for (auto& bin : tier_state_[static_cast<std::size_t>(tier)].bins) {
    if (bin.size_class == size_class) {
      bin.free_list.push_back(addr);
      return;
    }
  }
}

ObjectId UnifiedHeap::Allocate(std::uint32_t size, int tier_hint) {
  assert(!tiers_.empty() && "no tiers configured");
  const std::uint32_t sc = ClassFor(size);
  if (sc == 0) {
    ++stats_.failed_allocations;
    return kInvalidObject;
  }

  std::vector<int> candidates;
  if (tier_hint >= 0) {
    candidates.push_back(tier_hint);
  } else {
    for (int t = 0; t < num_tiers(); ++t) {
      candidates.push_back(t);
    }
  }

  for (int tier : candidates) {
    const std::uint64_t addr = CarveBlock(tier, sc);
    if (addr == 0) {
      continue;
    }
    const ObjectId id = next_id_++;
    Object obj;
    obj.info.id = id;
    obj.info.addr = addr;
    obj.info.size = size;
    obj.info.tier = tier;
    obj.shadow.resize(size);
    if (switch_mem_ != nullptr) {
      obj.info.vaddr = va_base_ + va_bump_;
      va_bump_ += sc;  // never reused; released ranges may linger dying
      switch_mem_->RegisterRange(obj.info.vaddr, sc,
                                 tiers_[static_cast<std::size_t>(tier)].caps.node, addr);
    }
    objects_.emplace(id, std::move(obj));
    tier_used_[static_cast<std::size_t>(tier)] += sc;
    ++stats_.allocations;
    return id;
  }
  ++stats_.failed_allocations;
  return kInvalidObject;
}

void UnifiedHeap::Free(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return;
  }
  const ObjectInfo& info = it->second.info;
  const std::uint32_t sc = ClassFor(info.size);
  if (switch_mem_ != nullptr) {
    if (info.migrating) {
      // The in-flight migration (and possibly its commit) still references
      // the range; FinishClaim releases it once the migration resolves.
      inflight_[id].freed = true;
    } else {
      switch_mem_->ReleaseRange(info.vaddr);
    }
  }
  ReleaseBlock(info.tier, sc, info.addr);
  tier_used_[static_cast<std::size_t>(info.tier)] -= sc;
  ++stats_.frees;
  objects_.erase(it);
}

void UnifiedHeap::Touch(Object& obj) {
  ++obj.info.epoch_accesses;
  MaybeRunEpoch();
}

void UnifiedHeap::Read(ObjectId id, std::function<void()> done) {
  auto it = objects_.find(id);
  assert(it != objects_.end() && "read of freed object");
  ++stats_.reads;
  Touch(it->second);
  if (switch_mem_ != nullptr) {
    const std::uint32_t size = it->second.info.size;
    switch_mem_->Resolve(it->second.info.vaddr,
                         [this, size, done = std::move(done)](const Translation& x, bool ok) {
                           if (!ok) {
                             if (done) {
                               done();  // range released underneath the access
                             }
                             return;
                           }
                           core_->AccessRange(x.addr, size, /*is_write=*/false, done);
                         });
    return;
  }
  core_->AccessRange(it->second.info.addr, it->second.info.size, /*is_write=*/false,
                     std::move(done));
}

void UnifiedHeap::Write(ObjectId id, std::function<void()> done) {
  auto it = objects_.find(id);
  assert(it != objects_.end() && "write of freed object");
  ++stats_.writes;
  Touch(it->second);
  if (switch_mem_ != nullptr) {
    const std::uint32_t size = it->second.info.size;
    switch_mem_->Resolve(it->second.info.vaddr,
                         [this, size, done = std::move(done)](const Translation& x, bool ok) {
                           if (!ok) {
                             if (done) {
                               done();
                             }
                             return;
                           }
                           core_->AccessRange(x.addr, size, /*is_write=*/true, done);
                         });
    return;
  }
  core_->AccessRange(it->second.info.addr, it->second.info.size, /*is_write=*/true,
                     std::move(done));
}

std::vector<std::byte>& UnifiedHeap::Shadow(ObjectId id) {
  auto it = objects_.find(id);
  assert(it != objects_.end());
  return it->second.shadow;
}

Segment UnifiedHeap::SegmentFor(const Object& obj) const {
  Segment seg;
  seg.node = tiers_[static_cast<std::size_t>(obj.info.tier)].caps.node;
  seg.addr = obj.info.addr;
  seg.bytes = obj.info.size;
  return seg;
}

void UnifiedHeap::BeginClaim(ObjectId id, const InFlightMigration& claim) {
  tier_migrating_src_[static_cast<std::size_t>(claim.src_tier)] += claim.size_class;
  ++migrations_in_flight_;
  inflight_.emplace(id, claim);
}

void UnifiedHeap::FinishClaim(ObjectId id) {
  auto it = inflight_.find(id);
  assert(it != inflight_.end() && "finishing a migration that was never claimed");
  const InFlightMigration claim = it->second;
  tier_migrating_src_[static_cast<std::size_t>(claim.src_tier)] -= claim.size_class;
  --migrations_in_flight_;
  inflight_.erase(it);
  if (switch_mem_ != nullptr && claim.freed) {
    // Free() arrived mid-migration and deferred the range release to us.
    switch_mem_->ReleaseRange(claim.vaddr);
  }
}

MigrateResult UnifiedHeap::Migrate(ObjectId id, int dst_tier, std::function<void(bool)> done) {
  auto it = objects_.find(id);
  MigrateResult reject = MigrateResult::kStarted;
  if (it == objects_.end()) {
    reject = MigrateResult::kNoSuchObject;
  } else if (it->second.info.migrating) {
    reject = MigrateResult::kBusy;
  } else if (dst_tier == it->second.info.tier) {
    reject = MigrateResult::kSameTier;
  }
  if (reject != MigrateResult::kStarted) {
    if (done) {
      done(false);
    }
    return reject;
  }
  Object& obj = it->second;
  const std::uint32_t sc = ClassFor(obj.info.size);
  const std::uint64_t dst_addr = CarveBlock(dst_tier, sc);
  if (dst_addr == 0) {
    if (done) {
      done(false);
    }
    return MigrateResult::kNoSpace;
  }

  obj.info.migrating = true;
  const int src_tier = obj.info.tier;
  const std::uint64_t src_addr = obj.info.addr;
  const std::uint64_t vaddr = obj.info.vaddr;

  ETransDescriptor desc;
  desc.src.push_back(SegmentFor(obj));
  Segment dst;
  dst.node = tiers_[static_cast<std::size_t>(dst_tier)].caps.node;
  dst.addr = dst_addr;
  dst.bytes = obj.info.size;
  desc.dst.push_back(dst);
  desc.ownership = Ownership::kInitiator;

  if (dst_tier < src_tier) {
    ++stats_.promotions;
  } else {
    ++stats_.demotions;
  }

  // Record the new placement eagerly so allocation bookkeeping stays
  // consistent even if the object is freed mid-migration; the copy's cost
  // is still fully simulated before `done` fires. The source block stays
  // carved until the copy resolves, tracked as migrating-source bytes.
  obj.info.addr = dst_addr;
  obj.info.tier = dst_tier;
  tier_used_[static_cast<std::size_t>(dst_tier)] += sc;
  BeginClaim(id, InFlightMigration{vaddr, src_tier, dst_tier, sc, /*freed=*/false});

  const std::uint32_t size = obj.info.size;
  TransferFuture f = etrans_->Submit(agent_, desc);
  f.Then([this, id, src_tier, src_addr, dst_tier, dst_addr, sc, size,
          done](const TransferResult& r) {
    auto it2 = objects_.find(id);

    if (!r.ok) {
      // The copy aborted (fabric failure, retries exhausted). The source
      // bytes were never released, so the object simply stays where it was;
      // no commit was issued, so cached translations are still correct.
      ++stats_.migrations_failed;
      if (it2 == objects_.end()) {
        // Freed mid-migration: Free() already returned the eagerly recorded
        // dst block, so only the src block is still ours.
        for (std::uint64_t a = src_addr; a < src_addr + size; a += 64) {
          core_->InvalidateLine(a);
        }
        ReleaseBlock(src_tier, sc, src_addr);
        tier_used_[static_cast<std::size_t>(src_tier)] -= sc;
      } else {
        // Drop any lines cached against the dst placement (accesses during
        // the migration used the new address), return the dst block, and
        // restore the source placement.
        for (std::uint64_t a = dst_addr; a < dst_addr + size; a += 64) {
          core_->InvalidateLine(a);
        }
        ReleaseBlock(dst_tier, sc, dst_addr);
        tier_used_[static_cast<std::size_t>(dst_tier)] -= sc;
        it2->second.info.addr = src_addr;
        it2->second.info.tier = src_tier;
        it2->second.info.migrating = false;
      }
      FinishClaim(id);
      if (done) {
        done(false);
      }
      return;
    }

    // The copy landed. Reclaiming the source block drops its stale cached
    // lines (a real system would remap; we keep the hierarchy honest about
    // where bytes live) and returns it to the bin.
    const auto reclaim_src = [this, src_tier, src_addr, sc, size](std::uint64_t copied) {
      for (std::uint64_t a = src_addr; a < src_addr + size; a += 64) {
        core_->InvalidateLine(a);
      }
      ReleaseBlock(src_tier, sc, src_addr);
      tier_used_[static_cast<std::size_t>(src_tier)] -= sc;
      stats_.bytes_migrated += copied;
    };

    if (switch_mem_ == nullptr) {
      // No fabric translation to keep coherent: the source block is
      // reusable as soon as the copy finished.
      reclaim_src(r.bytes);
      FinishClaim(id);
      if (it2 == objects_.end()) {
        if (done) {
          done(false);  // freed mid-migration
        }
        return;
      }
      it2->second.info.migrating = false;
      if (done) {
        done(true);
      }
      return;
    }

    if (inflight_.at(id).freed) {
      // Freed while copying: nothing to commit (Free already returned the
      // dst block); FinishClaim releases the range at the agent.
      reclaim_src(r.bytes);
      FinishClaim(id);
      if (done) {
        done(false);
      }
      return;
    }

    // Switch-mem: the new placement must be committed at the agent before
    // the source block is reusable — until every cached translation of the
    // old placement is invalidated and acknowledged, a stale hit could
    // still route reads at the source bytes.
    Translation next;
    next.vbase = inflight_.at(id).vaddr;
    next.bytes = sc;
    next.node = tiers_[static_cast<std::size_t>(dst_tier)].caps.node;
    next.addr = dst_addr;
    const std::uint64_t copied = r.bytes;
    switch_mem_->Commit(
        next, [this, id, src_tier, src_addr, dst_tier, dst_addr, sc, size, copied,
               done](bool committed) {
          auto it3 = objects_.find(id);
          if (!committed) {
            // Commit rejected (range released or a racing commit won). The
            // bytes were copied but the fabric still routes at the source
            // placement; roll back exactly like a failed copy.
            ++stats_.migrations_failed;
            if (it3 == objects_.end()) {
              for (std::uint64_t a = src_addr; a < src_addr + size; a += 64) {
                core_->InvalidateLine(a);
              }
              ReleaseBlock(src_tier, sc, src_addr);
              tier_used_[static_cast<std::size_t>(src_tier)] -= sc;
            } else {
              for (std::uint64_t a = dst_addr; a < dst_addr + size; a += 64) {
                core_->InvalidateLine(a);
              }
              ReleaseBlock(dst_tier, sc, dst_addr);
              tier_used_[static_cast<std::size_t>(dst_tier)] -= sc;
              it3->second.info.addr = src_addr;
              it3->second.info.tier = src_tier;
              it3->second.info.migrating = false;
            }
            FinishClaim(id);
            if (done) {
              done(false);
            }
            return;
          }
          // Every stale cached translation is gone: reclaim the src block.
          for (std::uint64_t a = src_addr; a < src_addr + size; a += 64) {
            core_->InvalidateLine(a);
          }
          ReleaseBlock(src_tier, sc, src_addr);
          tier_used_[static_cast<std::size_t>(src_tier)] -= sc;
          stats_.bytes_migrated += copied;
          FinishClaim(id);
          if (it3 == objects_.end()) {
            if (done) {
              done(false);  // freed during the commit handshake
            }
            return;
          }
          it3->second.info.migrating = false;
          if (done) {
            done(true);
          }
        });
  });
  return MigrateResult::kStarted;
}

void UnifiedHeap::MaybeRunEpoch() {
  if (engine_->Now() >= next_epoch_at_) {
    RunEpoch();
  }
}

void UnifiedHeap::RunEpoch() {
  // Lazy catch-up: an idle stretch spanning k epoch lengths must decay
  // temperatures k times, not once — folding it as a single epoch left
  // stale objects artificially hot and blocked demotion. The k-1 skipped
  // epochs saw no accesses (decay by 1-alpha each); the accumulated access
  // count folds last, so activity that triggered the catch-up stays hot.
  // Epochs stay anchored to the original grid. An explicit early RunEpoch()
  // call (now before the next boundary) keeps the legacy single-fold
  // re-anchoring semantics.
  const Tick now = engine_->Now();
  std::uint64_t elapsed = 1;
  if (config_.epoch_length > 0 && now >= next_epoch_at_) {
    elapsed += (now - next_epoch_at_) / config_.epoch_length;
    next_epoch_at_ += elapsed * config_.epoch_length;
  } else {
    next_epoch_at_ = now + config_.epoch_length;
  }
  stats_.epochs += elapsed;
  ++stats_.folds;

  // Profile: every object decays through the elapsed-1 idle epochs, then
  // folds its open-epoch access count (the activity that triggered the
  // catch-up lands in the newest epoch). Never-touched objects decay like
  // any other, so an idle object cannot stay warm forever. An object can
  // qualify both ways when the thresholds overlap (promote_threshold <
  // demote_threshold); the policy re-filters.
  const double alpha = config_.ewma_alpha;
  const double idle_decay = std::pow(1.0 - alpha, static_cast<double>(elapsed - 1));
  epoch_temperature_.Clear();
  std::vector<Candidate> hot;
  std::vector<Candidate> cold;
  for (auto& [id, obj] : objects_) {
    ObjectInfo& info = obj.info;
    if (elapsed > 1) {
      info.temperature *= idle_decay;
    }
    info.temperature =
        alpha * static_cast<double>(info.epoch_accesses) + (1.0 - alpha) * info.temperature;
    info.epoch_accesses = 0;
    epoch_temperature_.Add(info.temperature);
    if (info.temperature >= config_.promote_threshold) {
      hot.push_back(Candidate{info.temperature, id, &info});
    }
    if (info.temperature <= config_.demote_threshold) {
      cold.push_back(Candidate{info.temperature, id, &info});
    }
  }
  stats_.hot_candidates += std::min(hot.size(), kMaxEpochCandidates);
  stats_.cold_candidates += std::min(cold.size(), kMaxEpochCandidates);
  if (!config_.migration_enabled) {
    return;
  }

  // Keep the hottest and the coldest kMaxEpochCandidates, each sorted once
  // by (temperature, id), so the policy's input never depends on the
  // object table's iteration order.
  const auto hotter = [](const Candidate& a, const Candidate& b) {
    return a.temperature != b.temperature ? a.temperature > b.temperature : a.id < b.id;
  };
  const auto colder = [](const Candidate& a, const Candidate& b) {
    return a.temperature != b.temperature ? a.temperature < b.temperature : a.id < b.id;
  };
  SortCapped(hot, hotter);
  SortCapped(cold, colder);

  // Hot first, then cold. A cold candidate is also a kept hot one exactly
  // when it qualifies as hot and does not rank after the last kept hot one.
  std::vector<ObjectInfo> snapshot;
  snapshot.reserve(hot.size() + cold.size());
  for (const Candidate& c : hot) {
    snapshot.push_back(*c.info);
  }
  for (const Candidate& c : cold) {
    if (c.temperature < config_.promote_threshold || hotter(hot.back(), c)) {
      snapshot.push_back(*c.info);
    }
  }
  for (const auto& move : TemperaturePolicy::Decide(snapshot, tiers_, tier_used_, config_)) {
    Migrate(move.object, move.dst_tier, nullptr);
  }
}

ObjectInfo UnifiedHeap::Info(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return ObjectInfo{};
  }
  return it->second.info;
}

int UnifiedHeap::TierOf(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? -1 : it->second.info.tier;
}

}  // namespace unifab
