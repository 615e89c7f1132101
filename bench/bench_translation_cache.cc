// E-XLAT: switch-resident memory control — adapter translation-cache hit
// rate vs. migration churn, plus the heap's temperature profiling at scale.
//
// Scenario "churn": host 0's heap owns a FAM-resident object population;
// host 1 resolves fabric-virtual addresses against the switch-resident
// agent through its adapter translation cache (DeACT-style). Between fixed
// 10 us windows the bench migrates a burst of objects between the two FAM
// tiers; every commit invalidates host 1's cached translations, so the hit
// rate must degrade monotonically as the per-burst migration count grows.
// The bench enforces that monotonicity (exit 1 on violation).
//
// Scenario "profiler_scale": one host reads 64 Ki zipf-skewed objects with
// epoch migration on, all placement resolved through the agent. Every
// epoch has more cold objects than kMaxEpochCandidates, so the candidate
// cap binds.
//
// Scenario "sparse_shards" (named for the sharded profiler it once
// exercised): 5 live objects, one of them read, over 3 epochs. The
// epoch-temperature summary must hold exactly one sample per live object —
// enforced here because a double-count regression would silently skew the
// promote/demote thresholds rather than crash.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/runtime.h"
#include "src/sim/random.h"

namespace unifab {
namespace {

constexpr Tick kChurnHorizon = FromUs(250.0);
constexpr Tick kBurstPeriod = FromUs(10.0);
constexpr int kChurnLevels[] = {0, 16, 64, 256};  // migrations per burst

struct ChurnOutcome {
  double hit_rate = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t commits = 0;
  std::uint64_t busy_skips = 0;
};

// Hit rate at host 1's adapter cache while host 0's heap migrates
// `burst` objects between the two FAM tiers every kBurstPeriod.
ChurnOutcome RunChurn(int burst) {
  ClusterConfig ccfg;
  ccfg.num_hosts = 2;
  ccfg.num_fams = 2;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);

  RuntimeOptions opts;
  opts.heap_local_bytes = 1ULL << 20;
  opts.heap.migration_enabled = false;  // churn is explicit, not policy-driven
  opts.switch_mem = true;
  opts.xlat_cache.capacity = 4096;  // no capacity evictions: misses are churn
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);
  SwitchMemClient* reader = runtime.switch_mem_client(1);

  constexpr int kObjects = 1024;
  std::vector<ObjectId> objects;
  std::vector<std::uint64_t> vaddrs;
  objects.reserve(kObjects);
  vaddrs.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    const ObjectId id = heap->Allocate(64, /*tier_hint=*/1);
    objects.push_back(id);
    vaddrs.push_back(heap->Info(id).vaddr);
  }

  // Closed-loop resolve streams on host 1: each completion issues the next
  // zipf-picked vaddr, so the cache sees a steady skewed lookup mix.
  ZipfGenerator zipf(/*seed=*/11, /*skew=*/0.6, kObjects);
  auto loop = std::make_shared<std::function<void()>>();
  *loop = [reader, &vaddrs, &zipf, loop] {
    reader->Resolve(vaddrs[zipf.Next()],
                    [loop](const Translation&, bool) { (*loop)(); });
  };
  for (int i = 0; i < 8; ++i) {
    (*loop)();
  }

  // Drive churn from between-run windows (the same pattern the heap tests
  // use): advance to each burst boundary, then flip `burst` objects to the
  // other FAM tier. kBusy results (a prior flip still committing) are
  // skipped and counted.
  ChurnOutcome out;
  std::size_t cursor = 0;
  for (Tick t = kBurstPeriod; t <= kChurnHorizon; t += kBurstPeriod) {
    cluster.engine().RunUntil(t);
    for (int j = 0; j < burst; ++j) {
      const ObjectId id = objects[cursor++ % objects.size()];
      const int dst = heap->TierOf(id) == 1 ? 2 : 1;
      if (heap->Migrate(id, dst, nullptr) == MigrateResult::kBusy) {
        ++out.busy_skips;
      }
    }
  }
  cluster.engine().RunUntil(kChurnHorizon);
  *loop = nullptr;  // the loop captures itself; break the cycle

  const TranslationCacheStats& cache = reader->cache()->stats();
  out.hit_rate = cache.HitRate();
  out.lookups = cache.lookups;
  out.misses = cache.misses;
  out.invalidations = cache.invalidations;
  out.commits = runtime.switch_mem_agent()->stats().commits;
  return out;
}

struct ProfilerOutcome {
  std::uint64_t folds = 0;
  std::uint64_t live_entries = 0;
  std::uint64_t summary_count = 0;
  double summary_mean = 0.0;
  std::uint64_t hot_candidates = 0;
  std::uint64_t cold_candidates = 0;
  std::uint64_t promotions = 0;
  std::uint64_t commits = 0;
  std::uint64_t reads = 0;
};

// 64 Ki objects, zipf 0.9, epoch migration on, placement through the agent.
ProfilerOutcome RunProfilerScale() {
  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 2;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);

  RuntimeOptions opts;
  opts.heap_local_bytes = 2ULL << 20;
  opts.heap.migration_enabled = true;
  opts.heap.epoch_length = FromUs(50.0);
  opts.heap.promote_threshold = 0.5;
  opts.heap.demote_threshold = 0.05;
  opts.switch_mem = true;
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);

  constexpr int kObjects = 65536;
  std::vector<ObjectId> objects;
  objects.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(heap->Allocate(64, /*tier_hint=*/1));
  }

  ZipfGenerator zipf(/*seed=*/7, /*skew=*/0.9, kObjects);
  Summary lat;
  auto loop = std::make_shared<std::function<void()>>();
  *loop = [&cluster, heap, &objects, &zipf, &lat, loop] {
    const ObjectId id = objects[zipf.Next()];
    const Tick t0 = cluster.engine().Now();
    heap->Read(id, [&cluster, &lat, t0, loop] {
      lat.Add(ToNs(cluster.engine().Now() - t0));
      (*loop)();
    });
  };
  for (int i = 0; i < 8; ++i) {
    (*loop)();
  }
  cluster.engine().RunUntil(FromUs(220.0));  // four 50 us epochs
  *loop = nullptr;  // the loop captures itself; break the cycle

  ProfilerOutcome out;
  out.folds = heap->stats().folds;
  out.live_entries = heap->live_objects();
  out.summary_count = heap->epoch_temperature().Count();
  out.summary_mean = heap->epoch_temperature().Mean();
  out.hot_candidates = heap->stats().hot_candidates;
  out.cold_candidates = heap->stats().cold_candidates;
  out.promotions = heap->stats().promotions;
  out.commits = runtime.switch_mem_agent()->stats().commits;
  out.reads = lat.Count();
  return out;
}

// 5 objects, one of them read each epoch; the others only decay.
ProfilerOutcome RunSparseShards() {
  ClusterConfig ccfg;
  ccfg.num_hosts = 1;
  ccfg.num_fams = 1;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);

  RuntimeOptions opts;
  opts.heap_local_bytes = 1ULL << 20;
  opts.heap.migration_enabled = false;
  opts.heap.epoch_length = FromUs(10.0);
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);

  std::vector<ObjectId> objects;
  for (int i = 0; i < 5; ++i) {
    objects.push_back(heap->Allocate(64, /*tier_hint=*/0));
  }

  // Three epochs of accesses to one object; the others only decay. Folding
  // is access-triggered, so advance past each boundary and touch.
  for (int epoch = 1; epoch <= 3; ++epoch) {
    cluster.engine().RunUntil(FromUs(10.0) * epoch + FromUs(1.0));
    for (int j = 0; j < 4; ++j) {
      heap->Read(objects[0], nullptr);
    }
  }
  cluster.engine().Run();

  ProfilerOutcome out;
  out.folds = heap->stats().folds;
  out.live_entries = heap->live_objects();
  out.summary_count = heap->epoch_temperature().Count();
  out.summary_mean = heap->epoch_temperature().Mean();
  return out;
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("E-XLAT", "switch-resident memory control",
              "adapter translation-cache hit rate vs. migration churn; profiler "
              "fold at 64Ki objects; one summary sample per live object");

  BenchReport report("translation_cache");

  std::printf("\n--- churn sweep: 1024 objs, 8 resolve streams, 250 us, burst/10 us ---\n");
  std::printf("%-18s %-10s %-10s %-10s %-14s %-10s %-10s\n", "burst", "hit rate", "lookups",
              "misses", "invalidations", "commits", "busy");
  std::vector<ChurnOutcome> levels;
  for (const int burst : kChurnLevels) {
    const ChurnOutcome o = RunChurn(burst);
    std::printf("%-18d %-10.4f %-10llu %-10llu %-14llu %-10llu %-10llu\n", burst, o.hit_rate,
                static_cast<unsigned long long>(o.lookups),
                static_cast<unsigned long long>(o.misses),
                static_cast<unsigned long long>(o.invalidations),
                static_cast<unsigned long long>(o.commits),
                static_cast<unsigned long long>(o.busy_skips));
    const std::string key = "churn_" + std::to_string(burst);
    report.Note(key + "/hit_rate", o.hit_rate);
    report.Note(key + "/lookups", o.lookups);
    report.Note(key + "/misses", o.misses);
    report.Note(key + "/invalidations", o.invalidations);
    report.Note(key + "/commits", o.commits);
    report.Note(key + "/busy_skips", o.busy_skips);
    levels.push_back(o);
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (!(levels[i].hit_rate < levels[i - 1].hit_rate)) {
      std::fprintf(stderr,
                   "FAIL: hit rate not monotone in churn: burst %d -> %.6f, burst %d -> %.6f\n",
                   kChurnLevels[i - 1], levels[i - 1].hit_rate, kChurnLevels[i],
                   levels[i].hit_rate);
      return 1;
    }
  }
  std::printf("hit rate degrades monotonically with churn: ok\n");

  std::printf("\n--- profiler at scale: 64Ki objs, zipf 0.9, 4 epochs, migration on ---\n");
  const ProfilerOutcome scale = RunProfilerScale();
  std::printf("folds %llu  entries %llu  summary count %llu mean %.6f  hot %llu cold %llu  "
              "promotions %llu  commits %llu  reads %llu\n",
              static_cast<unsigned long long>(scale.folds),
              static_cast<unsigned long long>(scale.live_entries),
              static_cast<unsigned long long>(scale.summary_count), scale.summary_mean,
              static_cast<unsigned long long>(scale.hot_candidates),
              static_cast<unsigned long long>(scale.cold_candidates),
              static_cast<unsigned long long>(scale.promotions),
              static_cast<unsigned long long>(scale.commits),
              static_cast<unsigned long long>(scale.reads));
  report.Note("profiler_scale/folds", scale.folds);
  report.Note("profiler_scale/entries", scale.live_entries);
  report.Note("profiler_scale/summary_count", scale.summary_count);
  report.Note("profiler_scale/summary_mean", scale.summary_mean);
  report.Note("profiler_scale/hot_candidates", scale.hot_candidates);
  report.Note("profiler_scale/cold_candidates", scale.cold_candidates);
  report.Note("profiler_scale/promotions", scale.promotions);
  report.Note("profiler_scale/commits", scale.commits);
  report.Note("profiler_scale/reads", scale.reads);
  if (scale.summary_count != scale.live_entries) {
    std::fprintf(stderr, "FAIL: epoch-temperature summary has %llu samples for %llu entries\n",
                 static_cast<unsigned long long>(scale.summary_count),
                 static_cast<unsigned long long>(scale.live_entries));
    return 1;
  }

  std::printf("\n--- sparse: 5 objs, 3 epochs ---\n");
  const ProfilerOutcome sparse = RunSparseShards();
  std::printf("folds %llu  entries %llu  summary count %llu mean %.6f\n",
              static_cast<unsigned long long>(sparse.folds),
              static_cast<unsigned long long>(sparse.live_entries),
              static_cast<unsigned long long>(sparse.summary_count), sparse.summary_mean);
  report.Note("sparse_shards/folds", sparse.folds);
  report.Note("sparse_shards/entries", sparse.live_entries);
  report.Note("sparse_shards/summary_count", sparse.summary_count);
  report.Note("sparse_shards/summary_mean", sparse.summary_mean);
  if (sparse.summary_count != sparse.live_entries) {
    std::fprintf(stderr, "FAIL: summary double-counted: %llu samples for %llu entries\n",
                 static_cast<unsigned long long>(sparse.summary_count),
                 static_cast<unsigned long long>(sparse.live_entries));
    return 1;
  }
  std::printf("one summary sample per live entry: ok\n");

  report.WriteJson();
  PrintFooter();
  return 0;
}
