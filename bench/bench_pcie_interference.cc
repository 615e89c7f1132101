// D3a: §3 Difference #3 — routable-PCIe interference on a FabreX-like
// fabric. The paper reports that (a) concurrent 64B PCIe writes to a
// disaggregated device add ~600 ns one-way latency versus holding the card
// in the host, and (b) interleaving the 64B stream with 16KB writes
// degrades its average latency drastically.

#include <cassert>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/sim/stats.h"

namespace unifab {
namespace {

// FabreX-flavoured components: PCIe Gen4 x4 per port (8 GB/s), sub-100ns
// switch, lean adapters (the device is an FPGA on the fabric, not a DDR
// DIMM behind a heavy FEA).
LinkConfig FabrexLink() {
  LinkConfig cfg;
  cfg.gigatransfers_per_sec = 16.0;  // Gen4
  cfg.lanes = 4;                     // 8 GB/s -> 68B flit in 8.5 ns
  cfg.propagation = FromNs(30.0);
  cfg.credits_per_vc = 16;
  cfg.credit_return_latency = FromNs(30.0);
  cfg.tx_queue_depth = 512;
  return cfg;
}

AdapterConfig LeanAdapter() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(100.0);
  cfg.response_proc_latency = FromNs(100.0);
  cfg.max_outstanding = 64;
  return cfg;
}

DramConfig FpgaScratch() {
  DramConfig cfg;
  cfg.capacity_bytes = 1ULL << 30;
  cfg.num_banks = 8;
  cfg.access_latency = FromNs(50.0);
  cfg.bandwidth_gbps = 16.0;
  return cfg;
}

struct Testbed {
  Engine engine;
  FabricInterconnect fabric{&engine, 11};
  std::unique_ptr<DramDevice> device;
  EndpointAdapter* fea = nullptr;
  std::vector<HostAdapter*> hosts;

  // direct=true: the device sits in the host (point-to-point, no switch).
  explicit Testbed(int num_hosts, bool direct) {
    device = std::make_unique<DramDevice>(&engine, FpgaScratch(), "fpga");
    if (direct) {
      fea = fabric.AddEndpointAdapter(LeanAdapter(), "fea", device.get());
      auto* h = fabric.AddHostAdapter(LeanAdapter(), "h0");
      fabric.ConnectDirect(h, fea, FabrexLink());
      hosts.push_back(h);
    } else {
      auto* sw = fabric.AddSwitch(SwitchConfig{}, "fabrex");
      fea = fabric.AddEndpointAdapter(LeanAdapter(), "fea", device.get());
      fabric.Connect(sw, fea, FabrexLink());
      for (int i = 0; i < num_hosts; ++i) {
        const std::string n = std::to_string(i);
        auto* h = fabric.AddHostAdapter(LeanAdapter(), "h" + n);
        fabric.Connect(sw, h, FabrexLink());
        hosts.push_back(h);
      }
    }
    fabric.ConfigureRouting();
  }

  // Chained 64B writes from `host`; returns per-op latency summary.
  void ChainWrites(int host, std::uint32_t bytes, int count, Summary* lat,
                   std::uint64_t addr_seed) {
    auto remaining = std::make_shared<int>(count);
    auto addr = std::make_shared<std::uint64_t>(addr_seed);
    auto issue = std::make_shared<std::function<void()>>();
    HostAdapter* h = hosts[static_cast<std::size_t>(host)];
    PbrId dst = fea->id();
    *issue = [this, h, dst, bytes, remaining, addr, lat, issue] {
      if (--*remaining < 0) {
        return;
      }
      MemRequest req;
      req.type = MemRequest::Type::kWrite;
      req.addr = (*addr += 4160);
      req.bytes = bytes;
      const Tick t0 = engine.Now();
      h->Submit(dst, req, [this, lat, t0, issue](bool ok) {
        assert(ok && "the testbed injects no faults");
        lat->Add(ToNs(engine.Now() - t0));
        (*issue)();
      });
    };
    (*issue)();
  }
};

double DirectAttachLatency() {
  Testbed tb(1, /*direct=*/true);
  Summary lat;
  tb.ChainWrites(0, 64, 200, &lat, 0);
  tb.engine.Run();
  return lat.Mean();
}

double FabricLatency(int writers) {
  Testbed tb(writers, /*direct=*/false);
  std::vector<std::unique_ptr<Summary>> lats;
  for (int w = 0; w < writers; ++w) {
    lats.push_back(std::make_unique<Summary>());
    // Each writer keeps 4 writes in flight (a small host write-combining
    // window) — the concurrency that creates the contention the paper saw.
    for (int chain = 0; chain < 4; ++chain) {
      tb.ChainWrites(w, 64, 100, lats.back().get(),
                     (static_cast<std::uint64_t>(w) << 24) +
                         (static_cast<std::uint64_t>(chain) << 16));
    }
  }
  tb.engine.Run();
  Summary all;
  for (auto& l : lats) {
    for (double p = 0.0; p <= 100.0; p += 10.0) {
      all.Add(l->Percentile(p));
    }
  }
  return all.Mean();
}

struct BulkResult {
  double small_mean;
  double small_p99;
};

BulkResult SmallWithBulk(bool bulk_on, std::uint32_t bulk_bytes) {
  Testbed tb(2, /*direct=*/false);
  Summary small;
  tb.ChainWrites(0, 64, 300, &small, 0);
  if (bulk_on) {
    Summary bulk;
    // Keep 4 bulk writes outstanding for the whole run.
    for (int i = 0; i < 4; ++i) {
      tb.ChainWrites(1, bulk_bytes, 100, &bulk, (1ULL << 28) + (static_cast<std::uint64_t>(i) << 20));
    }
  }
  tb.engine.Run();
  return BulkResult{small.Mean(), small.P99()};
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("D3a", "§3 Difference #3 (interference numbers)",
              "64B write latency to a disaggregated device: in-host vs fabric, concurrency "
              "sweep, and 16KB interleaving");

  BenchReport report("pcie_interference");
  const double direct = DirectAttachLatency();
  std::printf("in-host (direct attach) 64B write:            %8.1f ns\n", direct);
  report.Note("direct_attach_ns", direct);

  std::printf("\nconcurrent 64B writers through the FabreX switch:\n");
  std::printf("%-10s %-14s %-14s\n", "writers", "mean (ns)", "added vs in-host (ns)");
  for (int n : {1, 2, 4, 8, 16}) {
    const double lat = FabricLatency(n);
    std::printf("%-10d %-14.1f %-14.1f\n", n, lat, lat - direct);
    report.Note("fabric_writers" + std::to_string(n) + "_ns", lat);
  }
  std::printf("(paper: concurrent 64B writes add ~600 ns one-way vs holding the card in-host)\n");

  std::printf("\n64B stream interleaved with 16KB bulk writes (2 hosts, same device):\n");
  const BulkResult alone = SmallWithBulk(false, 0);
  const BulkResult with_bulk = SmallWithBulk(true, 16 * 1024);
  std::printf("%-28s mean %8.1f ns   p99 %8.1f ns\n", "64B alone", alone.small_mean,
              alone.small_p99);
  std::printf("%-28s mean %8.1f ns   p99 %8.1f ns\n", "64B + 16KB interleave",
              with_bulk.small_mean, with_bulk.small_p99);
  std::printf("degradation: %.1fx mean, %.1fx p99 (paper: 'degraded drastically')\n",
              with_bulk.small_mean / alone.small_mean, with_bulk.small_p99 / alone.small_p99);
  report.Note("alone_mean_ns", alone.small_mean);
  report.Note("alone_p99_ns", alone.small_p99);
  report.Note("interleaved_mean_ns", with_bulk.small_mean);
  report.Note("interleaved_p99_ns", with_bulk.small_p99);
  report.Note("degradation_mean", with_bulk.small_mean / alone.small_mean);
  report.Note("degradation_p99", with_bulk.small_p99 / alone.small_p99);
  report.WriteJson();
  PrintFooter();
  return 0;
}
