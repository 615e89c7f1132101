// X2: design-choice ablation — Flex Bus 68B vs 256B flit modes (paper
// §2.1). Small transactions prefer the small flit (less padding, lower
// serialization latency); bulk transfers prefer the large flit (3x payload
// per header). The crossover is the reason CXL keeps both.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

struct Result {
  double latency_ns;
  double wire_bytes_per_payload;  // overhead factor on the wire
};

Result Measure(FlitMode mode, std::uint32_t request_bytes, bool is_write) {
  Engine engine;
  FabricInterconnect fabric(&engine, 51);
  auto* sw = fabric.AddSwitch(FabrexSwitch(), "sw");
  DramDevice dram(&engine, OmegaLocalDram(), "dram");

  AdapterConfig host_cfg = OmegaHostAdapter();
  host_cfg.flit_mode = mode;
  AdapterConfig fea_cfg = OmegaEndpointAdapter();
  fea_cfg.flit_mode = mode;
  LinkConfig link = OmegaLink();
  link.flit_mode = mode;
  link.gigatransfers_per_sec = 8.0;  // x16 Gen3-era: serialization visible
  auto* fea = fabric.AddEndpointAdapter(fea_cfg, "fea", &dram);
  auto* host = fabric.AddHostAdapter(host_cfg, "host");
  fabric.Connect(sw, fea, link);
  fabric.Connect(sw, host, link);
  fabric.ConfigureRouting();

  MemRequest req;
  req.type = is_write ? MemRequest::Type::kWrite : MemRequest::Type::kRead;
  req.bytes = request_bytes;
  const Tick t0 = engine.Now();
  bool done = false;
  host->Submit(fea->id(), req, [&](bool ok) { done = ok; });
  engine.Run();

  Result r;
  r.latency_ns = done ? ToNs(engine.Now() - t0) : -1.0;
  // Wire efficiency: payload-carrying flits in this mode.
  const std::uint32_t cap = FlitPayloadCapacity(mode);
  const std::uint32_t data_flits = (request_bytes + cap - 1) / cap;
  r.wire_bytes_per_payload =
      static_cast<double>(data_flits) * FlitWireBytes(mode) / request_bytes;
  return r;
}

}  // namespace
}  // namespace unifab

int main() {
  using namespace unifab;
  PrintHeader("X2", "Flex Bus flit-mode ablation (§2.1)",
              "68B vs 256B flits across transaction sizes (8 GT/s x16 link)");
  std::printf("%-10s %-8s %-16s %-16s %-18s %-18s\n", "size", "op", "68B lat (ns)",
              "256B lat (ns)", "68B wire/payload", "256B wire/payload");
  BenchReport report("flit_modes");
  for (const std::uint32_t bytes : {64u, 256u, 1024u, 4096u, 65536u}) {
    for (const bool write : {false, true}) {
      const Result small = Measure(FlitMode::k68B, bytes, write);
      const Result large = Measure(FlitMode::k256B, bytes, write);
      std::printf("%-10u %-8s %-16.1f %-16.1f %-18.2f %-18.2f\n", bytes,
                  write ? "write" : "read", small.latency_ns, large.latency_ns,
                  small.wire_bytes_per_payload, large.wire_bytes_per_payload);
      const std::string key =
          std::to_string(bytes) + "B/" + (write ? "write" : "read") + "/";
      report.Note(key + "lat68_ns", small.latency_ns);
      report.Note(key + "lat256_ns", large.latency_ns);
      report.Note(key + "wire68_per_payload", small.wire_bytes_per_payload);
      report.Note(key + "wire256_per_payload", large.wire_bytes_per_payload);
    }
  }
  report.WriteJson();
  std::printf("(expected shape: 68B wins small transactions — a 64B line needs one 68B flit "
              "vs one mostly-empty 256B flit; 256B wins bulk — 1.33 wire bytes per payload "
              "byte vs 1.06, but fewer headers and credit round trips)\n");
  PrintFooter();
  return 0;
}
