// Cluster: a fully wired composable infrastructure (paper Figure 1b) — n
// host servers, m FAM chassis, k FAA chassis, hanging off one or more
// fabric switches — plus the address-map conventions the runtime relies on.

#ifndef SRC_TOPO_CLUSTER_H_
#define SRC_TOPO_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fabric/interconnect.h"
#include "src/sim/sharded_engine.h"
#include "src/topo/chassis.h"
#include "src/topo/host.h"
#include "src/topo/pod.h"
#include "src/topo/presets.h"

namespace unifab {

struct ClusterConfig {
  int num_hosts = 2;
  int num_fams = 1;
  int num_faas = 1;
  int num_switches = 1;  // chained linearly; components spread round-robin

  HostConfig host = OmegaHost();
  FamChassisConfig fam = OmegaFam();
  FaaChassisConfig faa = OmegaFaa();
  LinkConfig link = OmegaLink();
  SwitchConfig sw = FabrexSwitch();

  std::uint64_t seed = 42;

  // Fabric-attached memory appears in every host's address space starting
  // here; chassis i owns [fam_base + i*fam_stride, +fam_stride).
  std::uint64_t fam_base = 1ULL << 40;
  std::uint64_t fam_stride = 1ULL << 36;

  // --- Sharded parallel simulation (DESIGN.md §6e) ----------------------

  // Partition the simulation by fabric domain: each switch island and each
  // FAM chassis gets its own engine shard; hosts, FAA chassis, and shared
  // runtime objects stay on the root shard. The partition is part of the
  // topology — it never depends on the worker-thread count, so RunDigests
  // are bit-for-bit identical for any `shard_workers`.

  // Worker threads executing shard windows; 0 = the UNIFAB_SHARDS
  // environment variable (default 1).
  int shard_workers = 0;

  // --- Hierarchical pod scale-out (DESIGN.md §11) -----------------------

  // >1 builds a cluster-of-clusters: `num_pods` identical pods (contents
  // from `pod`; the flat counts above are ignored), each pod its own PBR
  // domain and DES shard, gateway switches joined by Ethernet bridges (one
  // trunk for 2 pods, a ring for 3+ so reroute has a redundant path). The
  // PBR id's 4-bit domain field caps this at 16 pods.
  int num_pods = 1;
  PodConfig pod;
  BridgeConfig bridge;
};

// Preset: a DFabric-style pod cluster — `num_pods` pods of `pod` contents
// over a 100 Gb/s Ethernet bridge ring.
ClusterConfig DFabricPodCluster(int num_pods, const PodConfig& pod = PodConfig{});

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The root shard: external drivers schedule stimulus and run the whole
  // simulation through it exactly as they did the old single engine.
  Engine& engine() { return sharded_.root(); }
  ShardedEngine& sharded() { return sharded_; }
  FabricInterconnect& fabric() { return *fabric_; }

  HostServer* host(int i) { return hosts_[static_cast<std::size_t>(i)].get(); }
  FamChassis* fam(int i) { return fams_[static_cast<std::size_t>(i)].get(); }
  FaaChassis* faa(int i) { return faas_[static_cast<std::size_t>(i)].get(); }
  FabricSwitch* fabric_switch(int i) { return switches_[static_cast<std::size_t>(i)]; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  int num_fams() const { return static_cast<int>(fams_.size()); }
  int num_faas() const { return static_cast<int>(faas_.size()); }

  // Pod structure; flat clusters report one implicit pod and no bridges.
  int num_pods() const { return pods_.empty() ? 1 : static_cast<int>(pods_.size()); }
  const Pod& pod(int p) const { return pods_[static_cast<std::size_t>(p)]; }
  const std::vector<BridgeLink*>& bridges() const { return bridges_; }

  // Provisions a dedicated lightweight control adapter on fabric switch
  // `sw` and re-resolves routes: the attachment pattern shared by the
  // central arbiter and the switch-resident memory agent. The interconnect
  // owns the returned adapter.
  HostAdapter* AttachControlAdapter(const AdapterConfig& config, const std::string& name,
                                    int sw = 0);

  // Address-space base of FAM chassis i (same in every host).
  std::uint64_t FamBase(int i) const {
    return config_.fam_base + static_cast<std::uint64_t>(i) * config_.fam_stride;
  }

  const ClusterConfig& config() const { return config_; }

 private:
  static ShardedEngine::Options ShardOptions(const ClusterConfig& config);
  void BuildFlat();
  void BuildPods();

  ClusterConfig config_;
  ShardedEngine sharded_;
  std::unique_ptr<FabricInterconnect> fabric_;
  std::vector<FabricSwitch*> switches_;  // owned by the interconnect
  std::vector<std::unique_ptr<HostServer>> hosts_;
  std::vector<std::unique_ptr<FamChassis>> fams_;
  std::vector<std::unique_ptr<FaaChassis>> faas_;
  std::vector<Pod> pods_;            // empty for flat clusters
  std::vector<BridgeLink*> bridges_; // owned by the interconnect
};

}  // namespace unifab

#endif  // SRC_TOPO_CLUSTER_H_
