// E-COH: coherent shared-memory window (CXL.cache-style) — hardware
// coherence vs. software replication crossover (paper DP#2).
//
// One FAM chassis exports a coherent window; every host gets a CoherentPort
// into its bounded snoop-filter directory. Two shared-counter structures
// run the same closed-loop read/write mix on top of the SAME substrate:
//
//   * CohPtr<Record>: one 1 KiB hardware-coherent object (16 blocks).
//     Reads touch all 16 blocks (port-cache hits while nobody writes);
//     writes are an 8-byte Store that acquires a single block exclusively.
//   * NodeReplicated<Counter, AddOp>: per-host replicas with
//     a shared op log in the window. Reads are local once synced; every
//     write appends to the log (tail + entry block, both cross-fabric).
//
// At write fraction 0 replication must win (replica reads are one tail hit;
// CohPtr scans 16 blocks). As the write fraction rises, log appends and
// replay fetches swamp the replicas while CohPtr pays one single-block
// ownership transfer per write — the bench locates the crossover and
// enforces both endpoints (exit 1 on violation).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cohptr.h"
#include "src/core/replicated.h"
#include "src/core/runtime.h"
#include "src/sim/random.h"

namespace unifab {
namespace {

constexpr Tick kHorizon = FromUs(400.0);
constexpr double kWriteFracs[] = {0.0, 0.05, 0.2, 0.5};

struct Counter {
  std::int64_t value = 0;
};
struct AddOp {
  std::int64_t delta;
};

// 16 coherence blocks: the "type-unconscious" object CohPtr serves whole.
struct Record {
  std::int64_t value = 0;
  std::uint8_t pad[1016] = {};
};

struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t back_invals = 0;
  std::uint64_t recalls = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t txn_failures = 0;
};

std::unique_ptr<Cluster> MakeCluster(int hosts) {
  ClusterConfig ccfg;
  ccfg.num_hosts = hosts;
  ccfg.num_fams = 1;
  ccfg.num_faas = 0;
  return std::make_unique<Cluster>(ccfg);
}

RuntimeOptions MakeOptions() {
  RuntimeOptions opts;
  opts.heap_local_bytes = 1ULL << 20;
  opts.heap.migration_enabled = false;
  opts.coherent_window = true;
  opts.coherent_window_bytes = 1ULL << 20;
  return opts;
}

// Closed loop per host: read with probability (1 - write_frac), else write.
// `read` / `write` take the host index and a continuation.
Outcome Drive(Cluster& cluster, UniFabricRuntime& runtime, int hosts, double write_frac,
              const std::function<void(int, std::function<void()>)>& read,
              const std::function<void(int, std::function<void()>)>& write) {
  auto rng = std::make_shared<Rng>(17);
  auto total = std::make_shared<std::uint64_t>(0);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int h = 0; h < hosts; ++h) {
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [h, rng, total, write_frac, &read, &write, loop] {
      ++*total;
      if (rng->NextBool(write_frac)) {
        write(h, [loop] { (*loop)(); });
      } else {
        read(h, [loop] { (*loop)(); });
      }
    };
    loops.push_back(loop);
    (*loop)();
  }
  cluster.engine().RunUntil(kHorizon);
  for (auto& loop : loops) {
    *loop = nullptr;  // the loop captures itself; break the cycle
  }

  Outcome out;
  out.ops = *total;
  const CoherentDirStats& d = runtime.coherent_directory()->stats();
  out.back_invals = d.back_invals_sent;
  out.recalls = d.recalls;
  out.invalidations = d.invalidations;
  for (int h = 0; h < hosts; ++h) {
    out.txn_failures += runtime.coherent_port(h)->stats().txn_failures;
  }
  return out;
}

Outcome RunCohPtr(int hosts, double write_frac) {
  auto cluster = MakeCluster(hosts);
  UniFabricRuntime runtime(cluster.get(), MakeOptions());
  auto rec = CohPtr<Record>::Make(runtime.coherent_window());

  const std::int64_t one = 1;
  return Drive(
      *cluster, runtime, hosts, write_frac,
      [&](int h, std::function<void()> k) {
        rec.Read(runtime.coherent_port(h),
                 [k = std::move(k)](const Record&, bool) { k(); });
      },
      [&](int h, std::function<void()> k) {
        rec.Store(runtime.coherent_port(h), 0, sizeof(one), &one,
                  [k = std::move(k)](bool) { k(); });
      });
}

Outcome RunReplicated(int hosts, double write_frac) {
  auto cluster = MakeCluster(hosts);
  UniFabricRuntime runtime(cluster.get(), MakeOptions());
  const std::uint64_t log_base = runtime.coherent_window()->Allocate(64 * 4096);
  NodeReplicated<Counter, AddOp> nr(
      &cluster->engine(), log_base, 4095,
      [](Counter& c, const AddOp& op) { c.value += op.delta; });
  std::vector<int> reps;
  for (int h = 0; h < hosts; ++h) {
    reps.push_back(nr.AddReplica(runtime.coherent_port(h)));
  }

  return Drive(
      *cluster, runtime, hosts, write_frac,
      [&](int h, std::function<void()> k) {
        nr.Read(reps[static_cast<std::size_t>(h)],
                [k = std::move(k)](const Counter&) { k(); });
      },
      [&](int h, std::function<void()> k) {
        nr.Execute(reps[static_cast<std::size_t>(h)], AddOp{1},
                   [k = std::move(k)] { k(); });
      });
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("E-COH", "coherent window: hardware coherence vs software replication",
              "CohPtr (16-block coherent object, 1-block writes) vs NodeReplicated "
              "(per-host replicas + op log) over the same CoherentPort substrate");

  BenchReport report("coherent_window");
  bool fail = false;

  for (const int hosts : {2, 4}) {
    std::printf("\n--- %d hosts, %.0f us closed loop ---\n", hosts, ToNs(kHorizon) / 1000.0);
    std::printf("%-11s %-12s %-12s %-10s %-22s %-10s\n", "write mix", "CohPtr ops",
                "NR ops", "winner", "dir bi/recall/inv", "failures");
    double crossover = -1.0;
    std::uint64_t coh0 = 0;
    std::uint64_t nr0 = 0;
    std::uint64_t coh50 = 0;
    std::uint64_t nr50 = 0;
    for (const double wf : kWriteFracs) {
      const Outcome coh = RunCohPtr(hosts, wf);
      const Outcome nr = RunReplicated(hosts, wf);
      const char* winner = coh.ops >= nr.ops ? "CohPtr" : "NR";
      if (crossover < 0.0 && coh.ops >= nr.ops) {
        crossover = wf;
      }
      if (wf == 0.0) {
        coh0 = coh.ops;
        nr0 = nr.ops;
      }
      if (wf == 0.5) {
        coh50 = coh.ops;
        nr50 = nr.ops;
      }
      char mix[16];
      std::snprintf(mix, sizeof(mix), "%.0f%%", wf * 100);
      char dirs[32];
      std::snprintf(dirs, sizeof(dirs), "%llu/%llu/%llu",
                    static_cast<unsigned long long>(coh.back_invals),
                    static_cast<unsigned long long>(coh.recalls),
                    static_cast<unsigned long long>(coh.invalidations));
      std::printf("%-11s %-12llu %-12llu %-10s %-22s %-10llu\n", mix,
                  static_cast<unsigned long long>(coh.ops),
                  static_cast<unsigned long long>(nr.ops), winner, dirs,
                  static_cast<unsigned long long>(coh.txn_failures + nr.txn_failures));

      char prefix[48];
      std::snprintf(prefix, sizeof(prefix), "hosts%d/writes%.0f%%/", hosts, wf * 100);
      report.Note(std::string(prefix) + "cohptr_ops", coh.ops);
      report.Note(std::string(prefix) + "nr_ops", nr.ops);
      report.Note(std::string(prefix) + "cohptr_back_invals", coh.back_invals);
      report.Note(std::string(prefix) + "cohptr_recalls", coh.recalls);
      report.Note(std::string(prefix) + "cohptr_invalidations", coh.invalidations);
      if (coh.txn_failures + nr.txn_failures != 0) {
        std::fprintf(stderr, "FAIL: protocol failures in a healthy fabric (hosts=%d wf=%.2f)\n",
                     hosts, wf);
        fail = true;
      }
    }
    // Endpoints of the trade (DP#2): replication wins read-only, hardware
    // coherence wins write-heavy; the sweep must cross in between.
    if (!(nr0 > coh0)) {
      std::fprintf(stderr,
                   "FAIL: replication should win the read-only mix at %d hosts "
                   "(NR %llu vs CohPtr %llu)\n",
                   hosts, static_cast<unsigned long long>(nr0),
                   static_cast<unsigned long long>(coh0));
      fail = true;
    }
    if (!(coh50 > nr50)) {
      std::fprintf(stderr,
                   "FAIL: hardware coherence should win the 50%% write mix at %d hosts "
                   "(CohPtr %llu vs NR %llu)\n",
                   hosts, static_cast<unsigned long long>(coh50),
                   static_cast<unsigned long long>(nr50));
      fail = true;
    }
    char xkey[32];
    std::snprintf(xkey, sizeof(xkey), "hosts%d/crossover_wf", hosts);
    char xval[16];
    std::snprintf(xval, sizeof(xval), "%.2f", crossover);
    report.Note(xkey, std::string(xval));
    std::printf("crossover: CohPtr overtakes NR at write fraction %s\n",
                crossover < 0 ? "none (>0.5)" : xval);
  }

  report.WriteJson();
  std::printf("(expected shape: NodeReplicated turns read-mostly sharing into local replays; "
              "once writes dominate, its log appends cost two fabric transactions each while "
              "CohPtr pays one single-block ownership transfer — hardware coherence wins)\n");
  PrintFooter();
  return fail ? 1 : 0;
}
