#include "src/topo/cluster.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace unifab {

ShardedEngine::Options Cluster::ShardOptions(const ClusterConfig& config) {
  ShardedEngine::Options options;
  options.workers = config.shard_workers > 0
                        ? static_cast<std::uint32_t>(config.shard_workers)
                        : 0;  // 0 = UNIFAB_SHARDS from the environment
  options.seed = config.seed;
  return options;
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), sharded_(ShardOptions(config)) {
  fabric_ = std::make_unique<FabricInterconnect>(&engine(), config.seed);

  if (config.num_pods > 1) {
    BuildPods();
  } else {
    BuildFlat();
  }

  // The minimum latency of any shard-boundary link is the conservative
  // lookahead: no domain can affect another faster than that.
  if (fabric_->MinCrossEngineLatency() != kTickNever) {
    sharded_.SetLookahead(fabric_->MinCrossEngineLatency());
  }

  fabric_->ConfigureRouting();

  // Publish every FAM chassis into every host's address map, and teach each
  // chassis where its window sits so the device decodes chassis-relative
  // offsets.
  for (int f = 0; f < num_fams(); ++f) {
    fams_[static_cast<std::size_t>(f)]->expander()->SetAddressBase(FamBase(f));
  }
  for (int h = 0; h < num_hosts(); ++h) {
    for (int f = 0; f < num_fams(); ++f) {
      hosts_[static_cast<std::size_t>(h)]->MapRemote(
          FamBase(f), fams_[static_cast<std::size_t>(f)]->dram()->config().capacity_bytes,
          fams_[static_cast<std::size_t>(f)]->id());
    }
  }
}

void Cluster::BuildFlat() {
  const ClusterConfig& config = config_;

  // Fabric-domain shard assignment (DESIGN.md §6e): every switch island and
  // every FAM chassis is its own domain with its own engine shard; hosts,
  // FAA chassis, and the shared runtime objects built on top stay on the
  // root shard (the iTask runtime invokes FAA accelerators directly, so
  // they must share the runtime's shard). Cross-domain traffic only flows
  // through links, whose latency bounds the lookahead window.
  for (int i = 0; i < config.num_switches; ++i) {
    fabric_->SetComponentEngine(&sharded_.AddShard("sw" + std::to_string(i)));
    switches_.push_back(fabric_->AddSwitch(config.sw, "fs" + std::to_string(i)));
    if (i > 0) {
      fabric_->Connect(switches_[static_cast<std::size_t>(i - 1)],
                       switches_[static_cast<std::size_t>(i)], config.link);
    }
  }
  fabric_->SetComponentEngine(nullptr);

  auto switch_for = [&](int idx) {
    return switches_[static_cast<std::size_t>(idx % config.num_switches)];
  };

  int attach = 0;
  for (int i = 0; i < config.num_hosts; ++i) {
    hosts_.push_back(std::make_unique<HostServer>(&engine(), fabric_.get(), config.host,
                                                  "host" + std::to_string(i)));
    fabric_->Connect(switch_for(attach++), hosts_.back()->fha(), config.link);
  }
  for (int i = 0; i < config.num_fams; ++i) {
    Engine* fam_engine = &sharded_.AddShard("fam" + std::to_string(i));
    fabric_->SetComponentEngine(fam_engine);
    fams_.push_back(std::make_unique<FamChassis>(fam_engine, fabric_.get(), config.fam,
                                                 "fam" + std::to_string(i)));
    fabric_->SetComponentEngine(nullptr);
    fabric_->Connect(switch_for(attach++), fams_.back()->fea(), config.link);
  }
  for (int i = 0; i < config.num_faas; ++i) {
    faas_.push_back(std::make_unique<FaaChassis>(&engine(), fabric_.get(), config.faa,
                                                 "faa" + std::to_string(i)));
    fabric_->Connect(switch_for(attach++), faas_.back()->fea(), config.link);
  }
}

void Cluster::BuildPods() {
  const ClusterConfig& config = config_;
  const int num_pods = config.num_pods;
  if (num_pods > kMaxFabricDomains) {
    std::fprintf(stderr,
                 "[unifab] cluster: num_pods=%d exceeds the %d-domain PBR id space\n",
                 num_pods, kMaxFabricDomains);
    std::abort();
  }
  const PodConfig& pc = config.pod;

  // Pod p is PBR domain p and engine shard "pod<p>",
  // holding the pod's switches and FAM chassis. Hosts and FAA chassis stay
  // on the root shard — the same split BuildFlat uses, so the runtime
  // objects built on top keep working. Everything that leaves a pod rides
  // the Ethernet bridges wired below.
  for (int p = 0; p < num_pods; ++p) {
    const auto domain = static_cast<std::uint16_t>(p);
    const std::string prefix = std::string("p").append(std::to_string(p)).append("/");
    Engine* pod_engine = &sharded_.AddShard("pod" + std::to_string(p));

    Pod pod;
    pod.index = p;
    std::vector<FabricSwitch*> pod_switches;
    for (int s = 0; s < pc.num_switches; ++s) {
      fabric_->SetComponentEngine(pod_engine);
      FabricSwitch* sw = fabric_->AddSwitch(config.sw, prefix + "fs" + std::to_string(s), domain);
      fabric_->SetComponentEngine(nullptr);
      if (s > 0) {
        fabric_->Connect(pod_switches.back(), sw, config.link);
      }
      pod.switches.push_back(static_cast<int>(switches_.size()));
      switches_.push_back(sw);
      pod_switches.push_back(sw);
    }
    pod.gateway = pod_switches.front();

    auto switch_for = [&](int idx) {
      return pod_switches[static_cast<std::size_t>(idx) % pod_switches.size()];
    };
    int attach = 0;
    for (int h = 0; h < pc.num_hosts; ++h) {
      pod.hosts.push_back(static_cast<int>(hosts_.size()));
      hosts_.push_back(std::make_unique<HostServer>(&engine(), fabric_.get(), config.host,
                                                    prefix + "host" + std::to_string(h), domain));
      fabric_->Connect(switch_for(attach++), hosts_.back()->fha(), config.link);
    }
    for (int f = 0; f < pc.num_fams; ++f) {
      fabric_->SetComponentEngine(pod_engine);
      pod.fams.push_back(static_cast<int>(fams_.size()));
      fams_.push_back(std::make_unique<FamChassis>(pod_engine, fabric_.get(), config.fam,
                                                   prefix + "fam" + std::to_string(f), domain));
      fabric_->SetComponentEngine(nullptr);
      fabric_->Connect(switch_for(attach++), fams_.back()->fea(), config.link);
    }
    for (int a = 0; a < pc.num_faas; ++a) {
      pod.faas.push_back(static_cast<int>(faas_.size()));
      faas_.push_back(std::make_unique<FaaChassis>(&engine(), fabric_.get(), config.faa,
                                                   prefix + "faa" + std::to_string(a), domain));
      fabric_->Connect(switch_for(attach++), faas_.back()->fea(), config.link);
    }
    pods_.push_back(std::move(pod));
  }

  // Ethernet bridges between pod gateways: one trunk for 2 pods, a ring
  // for 3+ (the ring gives ConfigureRouting a redundant inter-pod path to
  // fail over to when a bridge flaps).
  for (int p = 0; p < num_pods; ++p) {
    const int q = (p + 1) % num_pods;
    if (num_pods == 2 && p == 1) {
      break;  // two pods: a single trunk, not a doubled pair
    }
    bridges_.push_back(
        fabric_->ConnectBridge(pods_[static_cast<std::size_t>(p)].gateway,
                               pods_[static_cast<std::size_t>(q)].gateway, config.bridge));
  }
}

ClusterConfig DFabricPodCluster(int num_pods, const PodConfig& pod) {
  ClusterConfig config;
  config.num_pods = num_pods;
  config.pod = pod;
  return config;
}

HostAdapter* Cluster::AttachControlAdapter(const AdapterConfig& config, const std::string& name,
                                           int sw) {
  HostAdapter* adapter = fabric_->AddHostAdapter(config, name);
  fabric_->Connect(fabric_switch(sw), adapter, config_.link);
  fabric_->ConfigureRouting();
  return adapter;
}

}  // namespace unifab
