#include "fabbench/harness/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "src/core/runtime.h"
#include "src/sim/random.h"
#include "src/sim/scenario.h"
#include "src/topo/cluster.h"
#include "src/topo/faults.h"

namespace fabbench {
namespace {

using unifab::Cluster;
using unifab::ClusterConfig;
using unifab::Engine;
using unifab::FromUs;
using unifab::ObjectId;
using unifab::Rng;
using unifab::Tick;
using unifab::ToUs;
using unifab::UnifiedHeap;
using unifab::UniFabricRuntime;

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double CurrentRssMb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) {
      pages = 0;
    }
    std::fclose(f);
  }
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(pages) * page / (1024.0 * 1024.0);
}

// Times one call into a simulator API when tracing, so core.call_s and
// mem.call_s attribute the harness's own host time to the layer it entered.
template <typename F>
void Timed(bool on, double* acc, F&& call) {
  if (!on) {
    call();
    return;
  }
  const auto t0 = HostClock::now();
  call();
  *acc += SecondsSince(t0);
}

// Issue/terminal accounting for the operations a workload issues itself.
struct OpCounts {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

// A workload is built once per repetition and then driven through a warm-up
// and a timed phase by RunRep. Each phase issues operations until `stop`
// (absolute simulated time) and then lets them drain.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Cluster& cluster() = 0;
  // Builds the topology, runtime and workload state; fills the set-up times.
  virtual void Build(RepResult& r) = 0;
  virtual void StartPhase(Tick stop, bool timed) = 0;
  // Fills the simulated outputs and accounting after the timed phase drained.
  virtual void Finish(RepResult& r) = 0;
  virtual Tick warmup() const = 0;
  virtual Tick window() const = 0;

 protected:
  explicit Workload(const RepOptions& o) : opt_(o) {}
  bool tracing() const { return opt_.tracer != nullptr && opt_.tracer->enabled(); }
  // Times one set-up step and records it as a host-time span.
  template <typename F>
  double SetupStep(const char* span, F&& step) {
    const auto t0 = HostClock::now();
    step();
    const auto t1 = HostClock::now();
    if (opt_.tracer != nullptr) {
      opt_.tracer->Host(span, t0, t1);
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }
  void OpSpan(const char* name, Tick issued, Tick done) {
    if (tracing()) {
      opt_.tracer->Op(name, ToUs(issued), ToUs(done), phase_span_);
    }
  }

  RepOptions opt_;
  std::uint64_t phase_span_ = 0;  // sim-time parent of the current phase's op spans

  friend RepResult fabbench::RunRep(const std::string&, const RepOptions&);
};

// --- fabric_loadstore ------------------------------------------------------
//
// Closed loop on 4 hosts x 4 cores, 4 FAMs, 2 switches: every core keeps 8
// cacheline accesses in flight (twice its MSHRs, so accesses also queue for
// a miss slot) to random 64 B lines in a 1 GiB region of a FAM, 3 loads to
// 1 store, each issued after a 0.2 us mean exponential think time. Three
// accesses in four go to a FAM on the host's own switch and one crosses the
// inter-switch link, so the median sits inside the one-switch latency mode
// rather than on the boundary between the two. Only the cluster is built
// (no runtime), so the heap, eTrans, the arbiter and collectives are
// bypassed.
class FabricLoadStore : public Workload {
 public:
  static constexpr int kHosts = 4;
  static constexpr int kFams = 4;
  static constexpr int kCoresPerHost = 4;
  static constexpr int kInFlight = 8;  // twice the core's 4 MSHRs
  static constexpr double kThinkUs = 0.2;  // mean
  static constexpr std::uint64_t kRegionLines = (1ULL << 30) / 64;

  explicit FabricLoadStore(const RepOptions& o) : Workload(o) {}

  Cluster& cluster() override { return *cluster_; }
  Tick warmup() const override { return FromUs(20.0); }
  Tick window() const override { return FromUs(4000.0); }

  void Build(RepResult& r) override {
    ClusterConfig cfg;
    cfg.num_hosts = kHosts;
    cfg.num_fams = kFams;
    cfg.num_faas = 0;
    cfg.num_switches = 2;
    cfg.host.num_cores = kCoresPerHost;
    cfg.shard_workers = opt_.workers;
    r.cluster_build_s = SetupStep("topo.build", [&] { cluster_ = std::make_unique<Cluster>(cfg); });
    for (int h = 0; h < kHosts; ++h) {
      for (int c = 0; c < cluster_->host(h)->num_cores(); ++c) {
        cores_.push_back(Core{cluster_->host(h)->core(c),
                              Rng(unifab::DeriveStream(opt_.seed, 100 + cores_.size()))});
      }
    }
    r.setup_s = r.cluster_build_s;
  }

  void StartPhase(Tick stop, bool timed) override {
    stop_ = stop;
    timed_ = timed;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      for (int i = 0; i < kInFlight; ++i) {
        Issue(c);
      }
    }
  }

  void Finish(RepResult& r) override {
    r.latency_us = std::move(latency_us_);
    r.payload_bytes = ops_.completed * 64;
    r.attempted = ops_.issued;
    r.completed = ops_.completed;
    r.failed = ops_.failed;
    r.in_flight = ops_.issued - ops_.completed - ops_.failed;
    r.mem_call_s = mem_call_s_;
  }

 private:
  struct Core {
    unifab::MemoryHierarchy* mem;
    Rng rng;
  };

  void Issue(std::size_t c) {
    if (cluster_->engine().Now() >= stop_) {
      return;
    }
    Core& core = cores_[c];
    // Cluster wiring is round-robin over the two switches: host h hangs off
    // switch h % 2 and FAM f off switch f % 2.
    const int host_switch = static_cast<int>(c) / kCoresPerHost % 2;
    const int sw = core.rng.NextBelow(4) < 3 ? host_switch : 1 - host_switch;
    const int fam = sw + 2 * static_cast<int>(core.rng.NextBelow(kFams / 2));
    const std::uint64_t addr = cluster_->FamBase(fam) + core.rng.NextBelow(kRegionLines) * 64;
    const bool is_write = core.rng.NextBelow(4) == 0;
    const Tick t0 = cluster_->engine().Now();
    const bool timed = timed_;
    if (timed) {
      ++ops_.issued;
    }
    Timed(tracing(), &mem_call_s_, [&] {
      core.mem->Access(addr, is_write, [this, c, t0, timed, is_write] {
        const Tick now = cluster_->engine().Now();
        if (timed) {
          ++ops_.completed;
          latency_us_.push_back(ToUs(now - t0));
          OpSpan(is_write ? "mem.store" : "mem.load", t0, now);
        }
        // A short exponential think time before the next access, so the
        // queueing at the MSHRs varies with the seed instead of locking
        // into a few fixed latencies.
        const Tick think = FromUs(cores_[c].rng.NextExponential(kThinkUs));
        cluster_->engine().Schedule(think, [this, c] { Issue(c); });
      });
    });
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<Core> cores_;
  Tick stop_ = 0;
  bool timed_ = false;
  OpCounts ops_;
  std::vector<double> latency_us_;
  double mem_call_s_ = 0.0;
};

// --- tenant_qos_flap -------------------------------------------------------
//
// Open-loop tenant campaign (gold/silver/bronze, ~10k tenants) on 4 hosts,
// 2 FAMs, 1 FAA, 2 switches, plus the benchmark's own heap client: zipf
// reads over a FAM-resident object set larger than its fast tier (so the
// temperature profiler promotes and demotes every epoch) and explicit
// UnifiedHeap::Migrate calls. FAM 1's uplink flaps mid-window; the eTrans
// traffic of the tenants homed on it must retry and reroute. Headline
// latency is the gold class's.
//
// The tenant heap_migrate op is deliberately absent from every mix: with it
// the run aborts on TenantEngine's in_flight_ > 0 assertion, because
// UnifiedHeap::Migrate already calls done(false) on a rejected migration
// and TenantEngine::IssueHeap then completes the op a second time. See
// fabbench/NOTES.md.
class TenantQosFlap : public Workload {
 public:
  static constexpr int kHosts = 4;
  static constexpr int kClientObjects = 8192;          // per host, FAM-resident
  static constexpr std::uint32_t kObjectBytes = 256;
  static constexpr std::uint64_t kFastTierBytes = 64 * kObjectBytes;
  static constexpr int kReadersPerHost = 2;
  static constexpr int kMigrateEvery = 16;             // 1 in 16 client ops

  explicit TenantQosFlap(const RepOptions& o) : Workload(o) {}

  Cluster& cluster() override { return *cluster_; }
  Tick warmup() const override { return FromUs(200.0); }
  Tick window() const override { return FromUs(4000.0); }

  void Build(RepResult& r) override {
    ClusterConfig cfg;
    cfg.num_hosts = kHosts;
    cfg.num_fams = 2;
    cfg.num_faas = 1;
    cfg.num_switches = 2;
    cfg.shard_workers = opt_.workers;
    r.cluster_build_s = SetupStep("topo.build", [&] { cluster_ = std::make_unique<Cluster>(cfg); });
    r.runtime_build_s = SetupStep("core.runtime_build", [&] {
      unifab::RuntimeOptions ro;
      ro.arbiter.qos[static_cast<int>(unifab::QosClass::kGuaranteed)].tenant_budget_mbps = 4000.0;
      runtime_ = std::make_unique<UniFabricRuntime>(cluster_.get(), ro);
      faults_ = std::make_unique<unifab::FaultScheduler>(&cluster_->engine(), &cluster_->fabric());
      faults_->RegisterChassis("fam1", cluster_->fam(1),
                               cluster_->fabric().LinkTo(cluster_->fam(1)->id()));
    });
    r.heap_alloc_s = SetupStep("core.heap.alloc", [&] { BuildClientHeaps(); });
    r.setup_s = r.cluster_build_s + r.runtime_build_s + r.heap_alloc_s;
  }

  void StartPhase(Tick stop, bool timed) override {
    stop_ = stop;
    timed_ = timed;
    const double stop_us = ToUs(stop);
    const unifab::ScenarioSpec spec = unifab::ScenarioSpec::Parse(ScenarioText(stop_us));
    if (!spec.errors.empty()) {
      std::fprintf(stderr, "fabbench: scenario error: %s\n", spec.errors.front().c_str());
      std::abort();
    }
    Timed(tracing(), &core_call_s_, [&] {
      tenants_ = runtime_->AttachTenants(spec);
      tenants_->Start();
    });
    if (timed) {
      // Flap FAM 1's uplink once, 30 us down, 600 us into the window.
      const double start_us = ToUs(cluster_->engine().Now());
      char plan[128];
      std::snprintf(plan, sizeof(plan), "flap fam1 start=%.3f period=1000 down=30 cycles=1",
                    start_us + 600.0);
      const unifab::FaultPlan fp = unifab::FaultPlan::Parse(plan);
      if (!fp.ok()) {
        std::fprintf(stderr, "fabbench: fault plan error: %s\n", fp.errors.front().c_str());
        std::abort();
      }
      faults_->Schedule(fp);
    }
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      for (int i = 0; i < kReadersPerHost; ++i) {
        ClientOp(h);
      }
    }
  }

  void Finish(RepResult& r) override {
    const unifab::TenantClassStats& gold = tenants_->class_stats(0);
    for (std::size_t c = 0; c < tenants_->num_classes(); ++c) {
      const unifab::TenantClassStats& s = tenants_->class_stats(c);
      const unifab::TenantClassSpec& cs = tenants_->spec().classes[c];
      const std::string k = "core.tenant." + cs.name + ".";
      r.sim_extra.emplace_back(k + "p99_us", s.latency_us.P99());
      r.sim_extra.emplace_back(k + "failed", static_cast<double>(s.failed));
      r.sim_extra.emplace_back(k + "issued", static_cast<double>(s.issued));
      std::uint64_t payload_ops = 0;
      for (int op = 0; op < unifab::kNumTenantOps; ++op) {
        if (op != static_cast<int>(unifab::TenantOp::kFaa)) {
          payload_ops += s.ops[op];
        }
      }
      r.payload_bytes += (payload_ops - std::min(payload_ops, s.failed)) * cs.bytes;
    }
    // Headline: gold tenant ops, timed from their due tick by the engine.
    r.p50_us = gold.latency_us.Percentile(50.0);
    r.p99_us = gold.latency_us.Percentile(99.0);
    r.samples = gold.latency_us.Count();
    // A completed client read or migration moves one object.
    r.payload_bytes += ops_.completed * kObjectBytes;
    r.attempted = tenants_->issued() + ops_.issued;
    r.completed = tenants_->completed() + ops_.completed;
    r.failed = tenants_->failed() + ops_.failed;
    r.in_flight = tenants_->in_flight() + (ops_.issued - ops_.completed - ops_.failed);
    if (tenants_->issued() != tenants_->completed() + tenants_->failed() + tenants_->in_flight()) {
      r.violations.push_back("tenant accounting: issued != completed + failed + in_flight");
    }
    r.core_call_s = core_call_s_;
  }

 private:
  struct Host {
    std::unique_ptr<UnifiedHeap> heap;
    std::vector<ObjectId> objects;
    std::unique_ptr<unifab::ZipfGenerator> zipf;
    Rng rng{0};
    std::uint64_t ops = 0;
  };

  std::string ScenarioText(double horizon_us) const {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "scenario tenant_qos_flap\nseed %llu\nhorizon_us %.3f\n"
        "class name=gold qos=guaranteed tenants=100 arrival=poisson rate_ops_s=16000 "
        "bytes=8192 request_mbps=2000 mix=etrans:3,heap_read:1,faa:1\n"
        "class name=silver qos=burstable tenants=900 arrival=poisson rate_ops_s=1000 "
        "bytes=1024 mix=heap_read:2,heap_write:1\n"
        "class name=bronze qos=best_effort tenants=9000 arrival=bursty burst=4 "
        "rate_ops_s=100 bytes=1024 mix=heap_read:2,etrans:1\n",
        static_cast<unsigned long long>(opt_.seed), horizon_us);
    return buf;
  }

  void BuildClientHeaps() {
    unifab::HeapConfig hc;  // default epochs, migration on
    for (int h = 0; h < kHosts; ++h) {
      Host host;
      unifab::HostServer* server = cluster_->host(h);
      // Core 1: the runtime's own heaps and the tenants use core 0.
      host.heap = std::make_unique<UnifiedHeap>(&cluster_->engine(), hc, server->core(1),
                                                runtime_->host_agent(h), runtime_->etrans());
      unifab::MemTier fast;
      fast.name = server->name() + "/bench_dram";
      fast.caps.type = unifab::MemoryNodeType::kHostLocal;
      fast.caps.node = server->id();
      fast.caps.capacity_bytes = kFastTierBytes;
      fast.base = 1ULL << 32;  // clear of the runtime heap's slice at 1 << 28
      fast.capacity = kFastTierBytes;
      fast.rank = 0;
      host.heap->AddTier(fast);
      // FAM 0 never flaps: a cacheline miss whose fabric transaction fails
      // is never completed (HostAdapter::Submit drops failed completions),
      // so load/store traffic to the flapped FAM would hang. See NOTES.md.
      const int f = 0;
      unifab::FamChassis* fam = cluster_->fam(f);
      unifab::MemTier slow;
      slow.name = fam->name() + "/bench";
      slow.caps = fam->expander()->Caps(fam->id());
      // Past the runtime heaps' 4 GiB carve, one GiB per host.
      slow.base = cluster_->FamBase(f) + (8ULL << 30) +
                  static_cast<std::uint64_t>(h) * (1ULL << 30);
      slow.capacity = 1ULL << 30;
      slow.rank = 1;
      host.heap->AddTier(slow);
      for (int i = 0; i < kClientObjects; ++i) {
        host.objects.push_back(host.heap->Allocate(kObjectBytes, /*tier_hint=*/1));
      }
      host.zipf = std::make_unique<unifab::ZipfGenerator>(
          unifab::DeriveStream(opt_.seed, 200 + static_cast<std::uint64_t>(h)), 0.99,
          kClientObjects);
      host.rng = Rng(unifab::DeriveStream(opt_.seed, 300 + static_cast<std::uint64_t>(h)));
      hosts_.push_back(std::move(host));
    }
  }

  // One closed-loop client op: mostly a zipf read, every kMigrateEvery-th
  // an explicit migration of a random object to the other tier (issued only
  // when the heap would admit it, so every issued op has one completion).
  void ClientOp(std::size_t hi) {
    Host& h = hosts_[hi];
    Engine& engine = cluster_->engine();
    if (engine.Now() >= stop_) {
      return;
    }
    const Tick t0 = engine.Now();
    const bool timed = timed_;
    if (++h.ops % kMigrateEvery == 0) {
      const ObjectId id = h.objects[h.rng.NextBelow(h.objects.size())];
      const int dst = h.heap->TierOf(id) == 0 ? 1 : 0;
      const unifab::MemTier& tier = h.heap->Tier(dst);
      if (!h.heap->Info(id).migrating && h.heap->TierUsed(dst) + kObjectBytes <= tier.capacity) {
        if (timed) {
          ++ops_.issued;
        }
        unifab::MigrateResult res = unifab::MigrateResult::kStarted;
        Timed(tracing(), &core_call_s_, [&] {
          res = h.heap->Migrate(id, dst, [this, hi, t0, timed](bool ok) {
            if (timed) {
              ++(ok ? ops_.completed : ops_.failed);
              OpSpan("core.heap.migrate", t0, cluster_->engine().Now());
            }
            ClientOp(hi);
          });
        });
        if (res != unifab::MigrateResult::kStarted) {
          // Admission was checked above; a refusal here is a bug in this client.
          std::fprintf(stderr, "fabbench: migration refused (%d)\n", static_cast<int>(res));
          std::abort();
        }
        return;
      }
    }
    if (timed) {
      ++ops_.issued;
    }
    const ObjectId id = h.objects[h.zipf->Next()];
    Timed(tracing(), &core_call_s_, [&] {
      h.heap->Read(id, [this, hi, t0, timed] {
        if (timed) {
          ++ops_.completed;
          OpSpan("core.heap.read", t0, cluster_->engine().Now());
        }
        ClientOp(hi);
      });
    });
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<UniFabricRuntime> runtime_;
  std::unique_ptr<unifab::FaultScheduler> faults_;
  unifab::TenantEngine* tenants_ = nullptr;  // owned by the runtime
  std::vector<Host> hosts_;
  Tick stop_ = 0;
  bool timed_ = false;
  OpCounts ops_;
  double core_call_s_ = 0.0;
};

// --- pod_allreduce_mix -----------------------------------------------------
//
// 8 DFabric pods x (4 hosts, 2 FAMs, 4 FAAs) joined by Ethernet bridges, on
// the 4-worker sharded engine. Back-to-back 256 KiB hierarchical AllReduces
// over all 32 FAAs run through the timed window while every host does
// closed-loop heap reads and writes (3:1, two in flight, exponential think
// time of 1 us mean) on 256 B objects spread over 2 MiB of its own pod's
// FAM, twice its core's L2; those heap ops are the headline. The warm-up
// slice runs heap traffic only.
class PodAllReduceMix : public Workload {
 public:
  static constexpr int kPods = 8;
  static constexpr int kObjectsPerHost = 8192;
  static constexpr std::uint32_t kObjectBytes = 256;
  static constexpr int kInFlightPerHost = 2;
  static constexpr double kThinkUs = 1.0;  // mean
  static constexpr std::uint64_t kAllReduceBytes = 256 * 1024;

  explicit PodAllReduceMix(const RepOptions& o) : Workload(o) {}

  Cluster& cluster() override { return *cluster_; }
  Tick warmup() const override { return FromUs(100.0); }
  Tick window() const override { return FromUs(4000.0); }

  void Build(RepResult& r) override {
    unifab::PodConfig pod;
    pod.num_hosts = 4;
    pod.num_fams = 2;
    pod.num_faas = 4;
    ClusterConfig cfg = unifab::DFabricPodCluster(kPods, pod);
    cfg.shard_workers = opt_.workers;
    r.cluster_build_s = SetupStep("topo.build", [&] { cluster_ = std::make_unique<Cluster>(cfg); });
    r.runtime_build_s = SetupStep("core.runtime_build", [&] {
      unifab::RuntimeOptions ro;
      // Keep every object on its pod's FAM, and fold temperatures once per
      // repetition at most: this workload is about topology and the
      // sharded engine, not the heap profiler.
      ro.heap.migration_enabled = false;
      ro.heap.epoch_length = FromUs(100000.0);
      runtime_ = std::make_unique<UniFabricRuntime>(cluster_.get(), ro);
    });
    r.heap_alloc_s = SetupStep("core.heap.alloc", [&] {
      for (int p = 0; p < kPods; ++p) {
        const unifab::Pod& pd = cluster_->pod(p);
        for (std::size_t i = 0; i < pd.hosts.size(); ++i) {
          Host host;
          host.index = pd.hosts[i];
          const int fam = pd.fams[i % pd.fams.size()];
          UnifiedHeap* heap = runtime_->heap(host.index);
          for (int o = 0; o < kObjectsPerHost; ++o) {
            host.objects.push_back(heap->Allocate(kObjectBytes, /*tier_hint=*/1 + fam));
          }
          host.rng =
              Rng(unifab::DeriveStream(opt_.seed, 400 + static_cast<std::uint64_t>(host.index)));
          hosts_.push_back(std::move(host));
        }
        for (int a : pd.faas) {
          group_.members.push_back(unifab::CollectiveMember{cluster_->faa(a)->id(), 1ULL << 20});
        }
      }
    });
    r.setup_s = r.cluster_build_s + r.runtime_build_s + r.heap_alloc_s;
  }

  void StartPhase(Tick stop, bool timed) override {
    stop_ = stop;
    timed_ = timed;
    if (timed) {
      IssueAllReduce();
    }
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      for (int i = 0; i < kInFlightPerHost; ++i) {
        HeapOp(h);
      }
    }
  }

  void Finish(RepResult& r) override {
    r.latency_us = std::move(latency_us_);
    r.payload_bytes = heap_ops_.completed * kObjectBytes + collectives_.completed * kAllReduceBytes;
    r.attempted = heap_ops_.issued + collectives_.issued;
    r.completed = heap_ops_.completed + collectives_.completed;
    r.failed = heap_ops_.failed + collectives_.failed;
    r.in_flight = r.attempted - r.completed - r.failed;
    r.core_call_s = core_call_s_;
  }

 private:
  struct Host {
    int index = 0;
    std::vector<ObjectId> objects;
    Rng rng{0};
  };

  void IssueAllReduce() {
    Engine& engine = cluster_->engine();
    if (engine.Now() >= stop_) {
      return;
    }
    const Tick t0 = engine.Now();
    const bool timed = timed_;
    if (timed) {
      ++collectives_.issued;
    }
    Timed(tracing(), &core_call_s_, [&] {
      runtime_->collect()
          ->AllReduce(group_, kAllReduceBytes, unifab::CollectiveAlgorithm::kHierarchical)
          .Then([this, t0, timed](const unifab::CollectiveResult& res) {
            const Tick now = cluster_->engine().Now();
            if (timed) {
              ++(res.ok ? collectives_.completed : collectives_.failed);
              OpSpan("core.collect.allreduce", t0, now);
            }
            IssueAllReduce();
          });
    });
  }

  void HeapOp(std::size_t hi) {
    Host& h = hosts_[hi];
    Engine& engine = cluster_->engine();
    if (engine.Now() >= stop_) {
      return;
    }
    const Tick t0 = engine.Now();
    const bool timed = timed_;
    const bool is_write = h.rng.NextBelow(4) == 0;
    const ObjectId id = h.objects[h.rng.NextBelow(h.objects.size())];
    if (timed) {
      ++heap_ops_.issued;
    }
    auto done = [this, hi, t0, timed, is_write] {
      const Tick now = cluster_->engine().Now();
      if (timed) {
        ++heap_ops_.completed;
        latency_us_.push_back(ToUs(now - t0));
        OpSpan(is_write ? "core.heap.write" : "core.heap.read", t0, now);
      }
      // Exponential think time, so the two ops of a host overlap by a
      // seed-drawn amount at the core's MSHRs.
      const double think_us = hosts_[hi].rng.NextExponential(kThinkUs);
      cluster_->engine().Schedule(FromUs(think_us), [this, hi] { HeapOp(hi); });
    };
    UnifiedHeap* heap = runtime_->heap(h.index);
    Timed(tracing(), &core_call_s_, [&] {
      if (is_write) {
        heap->Write(id, std::move(done));
      } else {
        heap->Read(id, std::move(done));
      }
    });
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<UniFabricRuntime> runtime_;
  std::vector<Host> hosts_;
  unifab::CollectiveGroup group_;
  Tick stop_ = 0;
  bool timed_ = false;
  OpCounts heap_ops_;
  OpCounts collectives_;
  std::vector<double> latency_us_;
  double core_call_s_ = 0.0;
};

std::unique_ptr<Workload> Make(const std::string& name, const RepOptions& o) {
  if (name == "fabric_loadstore") {
    return std::make_unique<FabricLoadStore>(o);
  }
  if (name == "tenant_qos_flap") {
    return std::make_unique<TenantQosFlap>(o);
  }
  if (name == "pod_allreduce_mix") {
    return std::make_unique<PodAllReduceMix>(o);
  }
  return nullptr;
}

// Mean latency of `count` dependent reads walking `stride` from `base` on a
// fresh 1-host cluster, after an optional warm pass over `warm_set` bytes
// (the method of bench_table2_hierarchy).
double ProbeLatencyNs(std::uint64_t base, std::uint64_t stride, int count, std::uint64_t warm_set) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.num_fams = 1;
  cfg.num_faas = 0;
  cfg.shard_workers = 1;
  Cluster cluster(cfg);
  unifab::MemoryHierarchy* core = cluster.host(0)->core(0);
  Engine& engine = cluster.engine();
  for (std::uint64_t a = 0; a < warm_set; a += 64) {
    core->Access(base + a, false, nullptr);
  }
  engine.Run();
  unifab::Summary lat;
  std::uint64_t addr = base;
  std::function<void(int)> next = [&](int left) {
    if (left == 0) {
      return;
    }
    const Tick t0 = engine.Now();
    core->Access(addr, false, [&, t0, left] {
      lat.Add(unifab::ToNs(engine.Now() - t0));
      addr = base + (addr - base + stride) % (warm_set != 0 ? warm_set : ~0ULL);
      next(left - 1);
    });
  };
  next(count);
  engine.Run();
  return lat.Mean();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fabric_loadstore", "tenant_qos_flap",
                                                 "pod_allreduce_mix"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& n = WorkloadNames();
  return std::find(n.begin(), n.end(), name) != n.end();
}

int PinnedWorkers(const std::string& workload) {
  return workload == "pod_allreduce_mix" ? 4 : 1;
}

int Campaigns(const std::string& workload) {
  if (workload == "fabric_loadstore") {
    return 4;
  }
  // One pod campaign already holds ~90k headline samples and its simulated
  // numbers barely move between seeds; repeating it gives the noisy
  // 4-worker host times more repetitions to take a median over.
  return workload == "tenant_qos_flap" ? 5 : 1;
}

RepResult RunRep(const std::string& workload, const RepOptions& options) {
  RepResult r;
  std::unique_ptr<Workload> w = Make(workload, options);
  if (w == nullptr) {
    r.violations.push_back("unknown workload " + workload);
    return r;
  }
  SpanRecorder* tracer = options.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();

  w->Build(r);
  r.rss_after_build_mb = CurrentRssMb();
  Cluster& cluster = w->cluster();
  Engine& engine = cluster.engine();
  engine.SetAuditCadence(0);  // audit by explicit sweep only: UNIFAB_AUDIT cannot skew timing

  // Warm-up slice, drained, excluded from every metric.
  if (tracing) {
    w->phase_span_ = tracer->SimPhase("phase.warmup", ToUs(engine.Now()),
                                      ToUs(engine.Now() + w->warmup()));
  }
  w->StartPhase(engine.Now() + w->warmup(), /*timed=*/false);
  engine.RunUntil(engine.Now() + w->warmup());
  engine.Run();

  r.snap_before = engine.metrics().SnapshotJson();
  const std::uint64_t fired0 = engine.TotalFired();
  const std::uint64_t windows0 = cluster.sharded().windows();
  const std::uint64_t cross0 = cluster.sharded().cross_events();

  // Timed phase: a fixed simulated window run in fixed slices, then drained.
  const Tick start = engine.Now();
  const Tick stop = start + w->window();
  constexpr Tick kSlices = 200;
  const Tick slice = w->window() / kSlices;
  if (tracing) {
    w->phase_span_ = tracer->SimPhase("phase.timed", ToUs(start), ToUs(stop));
  }
  const double cpu0 = CpuSeconds();
  const auto wall0 = HostClock::now();
  w->StartPhase(stop, /*timed=*/true);
  while (engine.Now() < stop) {
    const auto t0 = HostClock::now();
    engine.RunUntil(std::min(stop, engine.Now() + slice));
    const auto t1 = HostClock::now();
    r.slice_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (tracing) {
      tracer->Host("sim.run", t0, t1);
    }
  }
  const auto d0 = HostClock::now();
  engine.Run();
  if (tracing) {
    tracer->Host("sim.drain", d0, HostClock::now());
  }
  r.wall_s = SecondsSince(wall0);
  r.cpu_s = CpuSeconds() - cpu0;

  r.events = engine.TotalFired() - fired0;
  r.windows = cluster.sharded().windows() - windows0;
  r.cross_events = cluster.sharded().cross_events() - cross0;
  r.window_us = ToUs(stop - start);
  r.sim_elapsed_us = ToUs(engine.Now() - start);
  r.snap_after = engine.metrics().SnapshotJson();
  for (const auto& v : engine.audit().Sweep()) {
    r.violations.push_back("audit " + v.path + ": " + v.message);
  }
  w->Finish(r);
  if (!r.latency_us.empty()) {
    unifab::Summary lat;
    for (double v : r.latency_us) {
      lat.Add(v);
    }
    r.p50_us = lat.Percentile(50.0);
    r.p99_us = lat.Percentile(99.0);
    r.samples = lat.Count();
  }
  if (r.in_flight != 0) {
    r.violations.push_back("operations still in flight after drain: " +
                           std::to_string(r.in_flight));
  }
  if (r.attempted != r.completed + r.failed + r.in_flight) {
    r.violations.push_back("accounting: attempted != completed + failed + in_flight");
  }
  return r;
}

ProbeResult RunCalibrationProbe() {
  constexpr std::uint64_t kRemote = 1ULL << 40;  // FAM 0's base in ClusterConfig
  constexpr std::uint64_t kBigStride = (1 << 20) + 4160;
  ProbeResult p;
  p.l1_ns = ProbeLatencyNs(0, 64, 200, 4096);
  p.l2_ns = ProbeLatencyNs(0, 8256, 200, 256 * 1024);
  p.local_ns = ProbeLatencyNs(0, kBigStride, 100, 0);
  p.remote_ns = ProbeLatencyNs(kRemote, kBigStride, 48, 0);
  return p;
}

}  // namespace fabbench
