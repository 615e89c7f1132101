// Microbenchmarks (google-benchmark) for the simulator's own hot paths:
// these bound how large a composable-infrastructure simulation the harness
// can sustain, independent of any paper artifact.
//
// The report this binary writes is fully deterministic: wall-clock-derived
// numbers (calibrated iteration counts, elapsed time) go into the report's
// non-golden "perf" section, the benchmark-local engines run with auditing
// off (their event streams depend on iteration calibration), and only the
// fixed self-check workload below contributes to the golden "results" /
// "metrics" sections and the [unifab-audit] digest.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/mem/cache.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"

namespace unifab {
namespace {

// Calibrated iteration counts per benchmark, keyed by name. google-benchmark
// re-invokes each BM function while calibrating, so entries are overwritten
// and the final value is the measured run's count.
std::vector<std::pair<std::string, std::uint64_t>>& PerfIterations() {
  static std::vector<std::pair<std::string, std::uint64_t>> entries;
  return entries;
}

void NoteIterations(const std::string& name, const benchmark::State& state) {
  const auto iterations = static_cast<std::uint64_t>(state.iterations());
  for (auto& entry : PerfIterations()) {
    if (entry.first == name) {
      entry.second = iterations;
      return;
    }
  }
  PerfIterations().emplace_back(name, iterations);
}

void BM_EngineScheduleFire(benchmark::State& state) {
  Engine engine;
  // Auditing stays off even under UNIFAB_AUDIT=1: the number of events a
  // benchmark-local engine fires depends on wall-clock calibration, so its
  // digest would differ run to run and poison the bench's audit output.
  engine.SetAuditCadence(0);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    engine.Schedule(1, [&sink] { ++sink; });
    engine.Step(1);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("engine_schedule_fire", state);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineDeepQueue(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    engine.SetAuditCadence(0);  // calibration-dependent stream: keep unaudited
    std::uint64_t sink = 0;
    for (int i = 0; i < depth; ++i) {
      engine.Schedule(static_cast<Tick>(i % 97), [&sink] { ++sink; });
    }
    state.ResumeTiming();
    engine.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * depth);
  NoteIterations("engine_deep_queue/" + std::to_string(depth), state);
}
BENCHMARK(BM_EngineDeepQueue)->Arg(1024)->Arg(16384);

// The MSHR pattern: each of `range(0)` operations in flight arms its own
// far deadline and cancels it when it completes (1-2 us later), then starts
// the next operation. Every deadline lands on a distinct tick and none
// fires. Reported only: bench/baseline/engine_micro_floor.txt holds no floor
// for it.
struct TimeoutChurn {
  explicit TimeoutChurn(std::size_t in_flight) : deadlines(in_flight) {
    engine.SetAuditCadence(0);  // calibration-dependent stream: keep unaudited
    for (std::size_t lane = 0; lane < in_flight; ++lane) {
      Start(lane);
    }
  }

  void Start(std::size_t lane) {
    deadlines[lane] = engine.Schedule(FromUs(250.0), [] {});
    const Tick latency = FromNs(1000.0) + (ops++ * 7919) % FromNs(1000.0);
    engine.Schedule(latency, [this, lane] {
      engine.Cancel(deadlines[lane]);
      Start(lane);
    });
  }

  Engine engine;
  std::vector<EventId> deadlines;
  std::uint64_t ops = 0;
};

void BM_EngineTimeoutChurn(benchmark::State& state) {
  TimeoutChurn churn(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    churn.engine.Step(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("engine_timeout_churn/" + std::to_string(state.range(0)), state);
}
BENCHMARK(BM_EngineTimeoutChurn)->Arg(64);

void BM_CacheAccessHit(benchmark::State& state) {
  SetAssocCache cache(CacheConfig{32 * 1024, 64, 8});
  for (std::uint64_t a = 0; a < 32 * 1024; a += 64) {
    cache.Insert(a, false);
  }
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr, false));
    addr = (addr + 64) % (32 * 1024);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("cache_access_hit", state);
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  SetAssocCache cache(CacheConfig{32 * 1024, 64, 8});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(addr, (addr & 128) != 0));
    addr += 64;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("cache_insert_evict", state);
}
BENCHMARK(BM_CacheInsertEvict);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("rng_next", state);
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(42, 0.99, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  NoteIterations("zipf_next/" + std::to_string(state.range(0)), state);
}
BENCHMARK(BM_ZipfNext)->Arg(1024)->Arg(65536);

void BM_SummaryPercentile(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    Summary s;
    for (int i = 0; i < 4096; ++i) {
      s.Add(rng.NextDouble());
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.P99());
  }
  NoteIterations("summary_percentile", state);
}
BENCHMARK(BM_SummaryPercentile);

// Deterministic self-check workload captured into the bench JSON: wall-time
// numbers from the microbenchmarks above vary run to run, but this fixed
// event mix (and the registry snapshot it produces) must not.
void CaptureDeterministicWorkload(BenchReport* report) {
  Engine engine;
  TraceRecorder trace(/*capacity=*/1024);
  engine.SetTraceSink(&trace);
  Rng rng(99);
  std::uint64_t fired = 0;
  for (int i = 0; i < 10000; ++i) {
    engine.Schedule(static_cast<Tick>(rng.Next() % 1000), [&fired] { ++fired; });
  }
  engine.Run();
  report->Note("selfcheck/events_fired", fired);
  report->Note("selfcheck/final_now_ns", ToNs(engine.Now()));
  report->Note("selfcheck/trace_scheduled", trace.scheduled());
  report->Note("selfcheck/trace_fired", trace.fired());
  report->Capture("selfcheck", engine.metrics());
}

}  // namespace
}  // namespace unifab

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  const auto start = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  benchmark::Shutdown();

  unifab::BenchReport report("engine_micro");
  unifab::CaptureDeterministicWorkload(&report);
  for (const auto& entry : unifab::PerfIterations()) {
    report.Perf("iterations/" + entry.first, entry.second);
  }
  report.Perf("benchmark_wall_seconds", elapsed);
  report.WriteJson();
  return 0;
}
