// Extension ablation: node replication over a fabric-attached CC-NUMA node
// (DP#2 names node replication as the technique that "would benefit
// fabric-attached CC-NUMA memory nodes"; §5 promises data structures
// specially optimized per node type). Compares a NodeReplicated structure
// (per-host replicas + shared op log) against a centralized shared object
// (16 coherence blocks scanned per read) across read/write mixes and host
// counts.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/replicated.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/mem/expander.h"
#include "src/sim/random.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

struct Counter {
  std::int64_t value = 0;
};
struct AddOp {
  std::int64_t delta;
};

struct Rig {
  explicit Rig(int hosts) : fabric(&engine, 61) {
    auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "fam");
    expander = std::make_unique<MemoryExpander>(&engine, dram.get(), "exp");
    expander->CreateCoherentWindow(dram->config().capacity_bytes);
    AdapterConfig fea_cfg = OmegaEndpointAdapter();
    fea_cfg.request_proc_latency = FromNs(50);
    auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", expander.get());
    fabric.Connect(sw, fea, OmegaLink());
    fea_dispatch = std::make_unique<MessageDispatcher>(fea);
    const CoherentConfig cfg = CoherentConfig::CcNuma();
    dir = std::make_unique<CoherentDirectory>(&engine, cfg, fea_dispatch.get(), expander.get(),
                                              "dir");
    for (int i = 0; i < hosts; ++i) {
      const std::string n = std::to_string(i);
      AdapterConfig fha = OmegaHostAdapter();
      fha.request_proc_latency = FromNs(50);
      fha.response_proc_latency = FromNs(50);
      auto* adapter = fabric.AddHostAdapter(fha, "h" + n);
      fabric.Connect(sw, adapter, OmegaLink());
      dispatch.push_back(std::make_unique<MessageDispatcher>(adapter));
      ports.push_back(std::make_unique<CoherentPort>(&engine, cfg, dispatch.back().get(),
                                                     dir.get(), "p" + n));
    }
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  std::unique_ptr<DramDevice> dram;
  std::unique_ptr<MemoryExpander> expander;
  std::unique_ptr<MessageDispatcher> fea_dispatch;
  std::unique_ptr<CoherentDirectory> dir;
  std::vector<std::unique_ptr<MessageDispatcher>> dispatch;
  std::vector<std::unique_ptr<CoherentPort>> ports;
};

struct Result {
  double read_mean_ns;
  double op_mean_ns;
  std::uint64_t total_ops;
};

// Closed loop per host: read with probability (1 - write_frac), else write.
template <typename Structure>
Result Drive(Rig& rig, Structure& s, std::vector<int> handles, double write_frac,
             Tick horizon) {
  auto rng = std::make_shared<Rng>(5);
  auto total = std::make_shared<std::uint64_t>(0);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (std::size_t h = 0; h < handles.size(); ++h) {
    auto loop = std::make_shared<std::function<void()>>();
    const int handle = handles[h];
    *loop = [&s, handle, rng, total, write_frac, loop] {
      ++*total;
      if (rng->NextBool(write_frac)) {
        s.Execute(handle, AddOp{1}, [loop] { (*loop)(); });
      } else {
        s.Read(handle, [loop](const Counter&) { (*loop)(); });
      }
    };
    loops.push_back(loop);
    (*loop)();
  }
  rig.engine.RunUntil(horizon);
  Result r;
  r.read_mean_ns = s.stats().read_latency_ns.Empty() ? 0.0 : s.stats().read_latency_ns.Mean();
  r.op_mean_ns = 0.0;
  r.total_ops = *total;
  return r;
}

BenchReport* g_report = nullptr;

void RunMix(int hosts, double write_frac) {
  const Tick horizon = FromMs(2.0);

  Rig rig_nr(hosts);
  NodeReplicated<Counter, AddOp> nr(&rig_nr.engine, 0x100000, 1 << 20,
                                    [](Counter& c, const AddOp& op) { c.value += op.delta; });
  std::vector<int> nr_handles;
  for (auto& p : rig_nr.ports) {
    nr_handles.push_back(nr.AddReplica(p.get()));
  }
  const Result nr_res = Drive(rig_nr, nr, nr_handles, write_frac, horizon);

  Rig rig_c(hosts);
  CentralizedShared<Counter, AddOp> central(
      &rig_c.engine, 0x100000, [](Counter& c, const AddOp& op) { c.value += op.delta; },
      /*state_blocks=*/16);
  std::vector<int> c_handles;
  for (auto& p : rig_c.ports) {
    c_handles.push_back(central.AddHost(p.get()));
  }
  const Result c_res = Drive(rig_c, central, c_handles, write_frac, horizon);

  char mix[16];
  std::snprintf(mix, sizeof(mix), "%.0f%%", write_frac * 100);
  char rg[16];
  std::snprintf(rg, sizeof(rg), "%.2fx", c_res.read_mean_ns / nr_res.read_mean_ns);
  char tg[16];
  std::snprintf(tg, sizeof(tg), "%.2fx",
                static_cast<double>(nr_res.total_ops) / static_cast<double>(c_res.total_ops));
  std::printf("%-8d %-13s %-18.1f %-18.1f %-12s %-14s\n", hosts, mix, nr_res.read_mean_ns,
              c_res.read_mean_ns, rg, tg);
  if (g_report != nullptr) {
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "hosts%d/writes%.0f%%/", hosts, write_frac * 100);
    g_report->Note(std::string(prefix) + "nr_read_ns", nr_res.read_mean_ns);
    g_report->Note(std::string(prefix) + "central_read_ns", c_res.read_mean_ns);
    g_report->Note(std::string(prefix) + "nr_ops", nr_res.total_ops);
    g_report->Note(std::string(prefix) + "central_ops", c_res.total_ops);
  }
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("X1", "extension ablation (node replication on CC-NUMA)",
              "NodeReplicated (per-host replicas + op log) vs centralized 1KiB shared object");
  std::printf("%-8s %-13s %-18s %-18s %-12s %-14s\n", "hosts", "write mix", "NR read (ns)",
              "central read (ns)", "read gain", "tput gain");
  BenchReport report("node_replication");
  g_report = &report;
  for (const int hosts : {2, 3, 4}) {
    for (const double wf : {0.0, 0.1, 0.5}) {
      RunMix(hosts, wf);
    }
  }
  g_report = nullptr;
  report.WriteJson();
  std::printf("(expected shape: replicas turn shared reads into local-port hits; the gap "
              "grows with host count and shrinks as the write fraction rises — the same "
              "trade NrOS documents, realized on a fabric memory node)\n");
  PrintFooter();
  return 0;
}
