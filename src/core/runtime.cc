#include "src/core/runtime.h"

namespace unifab {
namespace {

// Control-service logic (arbiter, switch-mem agent) sits on-die next to a
// switch: cheap processing, one dedicated port.
AdapterConfig ControlAdapterConfig() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(25.0);
  cfg.response_proc_latency = FromNs(25.0);
  cfg.max_outstanding = 256;
  return cfg;
}

}  // namespace

UniFabricRuntime::UniFabricRuntime(Cluster* cluster, const RuntimeOptions& options)
    : cluster_(cluster), options_(options) {
  Engine* engine = &cluster->engine();
  FabricInterconnect& fabric = cluster->fabric();

  // --- Central arbiter on its own lightweight adapter (DP#4). -----------
  HostAdapter* arb_adapter =
      cluster->AttachControlAdapter(ControlAdapterConfig(), "arbiter/adapter");
  arbiter_dispatcher_storage_ = std::make_unique<MessageDispatcher>(arb_adapter);
  arbiter_dispatcher_ = arbiter_dispatcher_storage_.get();
  arbiter_ = std::make_unique<FabricArbiter>(engine, options.arbiter, arbiter_dispatcher_);
  for (int f = 0; f < cluster->num_fams(); ++f) {
    arbiter_->RegisterResource(cluster->fam(f)->id(), options.fam_capacity_mbps);
  }
  for (int a = 0; a < cluster->num_faas(); ++a) {
    arbiter_->RegisterResource(cluster->faa(a)->id(), options.faa_capacity_mbps);
  }
  // Host DRAM ingress is also a managed resource: promotions from fabric
  // memory toward hosts are throttled like any other bulk movement.
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    arbiter_->RegisterResource(cluster->host(h)->id(), options.host_capacity_mbps);
  }

  // --- eTrans engine with agents at every host and FAM controller. ------
  etrans_ = std::make_unique<ETransEngine>(engine, options.etrans_recovery);
  // Retries ask the fabric manager to re-resolve routes first, so a redrive
  // takes whatever redundant path survived the failure. The fabric outlives
  // the runtime (the cluster owns it), so capturing it by reference is safe.
  etrans_->SetRerouteHook([&fabric] { fabric.ConfigureRouting(); });
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    HostServer* host = cluster->host(h);
    arbiter_clients_.push_back(std::make_unique<ArbiterClient>(
        engine, options.arbiter, host->dispatcher(), arbiter_->fabric_id()));
    host_agents_.push_back(std::make_unique<MigrationAgent>(
        engine, host->dispatcher(), host->local_dram(), arbiter_clients_.back().get(),
        host->name() + "/agent"));
    etrans_->RegisterAgent(host->id(), host_agents_.back().get());
  }
  for (int f = 0; f < cluster->num_fams(); ++f) {
    FamChassis* fam = cluster->fam(f);
    fam_arbiter_clients_.push_back(std::make_unique<ArbiterClient>(
        engine, options.arbiter, fam->dispatcher(), arbiter_->fabric_id()));
    fam_agents_.push_back(std::make_unique<MigrationAgent>(
        engine, fam->dispatcher(), fam->dram(), fam_arbiter_clients_.back().get(),
        fam->name() + "/agent"));
    etrans_->RegisterAgent(fam->id(), fam_agents_.back().get());
  }
  // Push-enabled agents on the FAA endpoint adapters (collective members
  // move data over their own uplinks). Registered message-only so eTrans
  // point-to-point executor placement stays exactly as before.
  for (int a = 0; a < cluster->num_faas(); ++a) {
    FaaChassis* faa = cluster->faa(a);
    faa_arbiter_clients_.push_back(std::make_unique<ArbiterClient>(
        engine, options.arbiter, faa->dispatcher(), arbiter_->fabric_id()));
    faa_agents_.push_back(std::make_unique<MigrationAgent>(
        engine, faa->dispatcher(), faa->scratch(), faa_arbiter_clients_.back().get(),
        faa->name() + "/agent"));
    faa_agents_.back()->EnablePush();
    etrans_->RegisterAgent(faa->id(), faa_agents_.back().get(), /*executor_candidate=*/false);
  }

  // --- Collective engine over every agent-backed node (DP#1, multi-party).
  CollectiveConfig collect_cfg = options.collect;
  if (cluster->num_pods() > 1) {
    // Pod clusters: teach the planner's two-tier cost model what a bridge
    // hop costs, so kAuto weighs Ethernet alpha/beta when ranking the
    // hierarchical schedule against flat ring/tree. Explicit caller values
    // win over the derived ones.
    const BridgeConfig& bridge = cluster->config().bridge;
    if (collect_cfg.plan.bridge_alpha_us == 0.0) {
      collect_cfg.plan.bridge_alpha_us = ToUs(bridge.propagation);
    }
    if (collect_cfg.plan.bridge_mbps == 0.0) {
      collect_cfg.plan.bridge_mbps = bridge.ToLinkConfig().BytesPerSec() / 1e6;
    }
  }
  collect_ = std::make_unique<CollectiveEngine>(engine, etrans_.get(), &fabric, collect_cfg);
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    collect_->RegisterMember(cluster->host(h)->id(),
                             host_agents_[static_cast<std::size_t>(h)].get());
  }
  for (int f = 0; f < cluster->num_fams(); ++f) {
    // FAM chassis own their fabric domain (and DES shard): their agents'
    // grant callbacks fire on that shard, so the collective engine must not
    // drive them directly — they serve as delegated executors only.
    collect_->RegisterMember(cluster->fam(f)->id(),
                             fam_agents_[static_cast<std::size_t>(f)].get(),
                             /*shard_local=*/false);
  }
  for (int a = 0; a < cluster->num_faas(); ++a) {
    collect_->RegisterMember(cluster->faa(a)->id(),
                             faa_agents_[static_cast<std::size_t>(a)].get());
  }
  if (cluster->num_hosts() > 0) {
    collect_->SetFallbackAgent(host_agents_[0].get());
  }

  // --- OFI facade over eTrans + eCollect (DESIGN.md §11). ----------------
  ofi_ = std::make_unique<OfiDomain>(engine, etrans_.get(), collect_.get(), options.ofi);

  // --- Switch-resident memory control (DESIGN.md §8, opt-in). ------------
  if (options.switch_mem) {
    HostAdapter* sm_adapter =
        cluster->AttachControlAdapter(ControlAdapterConfig(), "switch_mem/adapter");
    switch_mem_dispatcher_ = std::make_unique<MessageDispatcher>(sm_adapter);
    switch_mem_agent_ = std::make_unique<SwitchMemAgent>(engine, options.switch_mem_cfg,
                                                         switch_mem_dispatcher_.get());
  }

  // --- Coherent shared-memory window (DESIGN.md §9, opt-in). -------------
  if (options.coherent_window && cluster->num_fams() > 0 && cluster->num_hosts() > 0) {
    FamChassis* fam = cluster->fam(0);
    const std::uint64_t win_base =
        cluster->FamBase(0) + fam->expander()->CreateCoherentWindow(options.coherent_window_bytes);
    // The directory is device logic: it runs on the chassis's own engine
    // shard (its deadline events must be locally cancellable) and speaks
    // through the chassis FEA dispatcher.
    coherent_directory_ = std::make_unique<CoherentDirectory>(
        fam->engine(), options.coherent, fam->dispatcher(), fam->expander(), fam->name());
    coherent_window_ = std::make_unique<CoherentWindow>(coherent_directory_.get(), win_base,
                                                        options.coherent_window_bytes);
    for (int h = 0; h < cluster->num_hosts(); ++h) {
      HostServer* host = cluster->host(h);
      coherent_ports_.push_back(std::make_unique<CoherentPort>(
          engine, options.coherent, host->dispatcher(), coherent_directory_.get(),
          host->name()));
    }
  }

  // --- Unified heap per host (DP#2). -------------------------------------
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    HostServer* host = cluster->host(h);
    auto heap = std::make_unique<UnifiedHeap>(engine, options.heap, host->core(0),
                                              host_agents_[static_cast<std::size_t>(h)].get(),
                                              etrans_.get());
    // Tier 0: a slice of host-local DRAM. Heaps carve disjoint slices per
    // host implicitly because each heap only talks to its own host DRAM.
    MemTier local;
    local.name = host->name() + "/dram";
    local.caps.type = MemoryNodeType::kHostLocal;
    local.caps.node = host->id();
    local.caps.capacity_bytes = options.heap_local_bytes;
    local.caps.typical_read_latency = FromNs(111.7);
    local.caps.typical_write_latency = FromNs(119.3);
    local.base = 1ULL << 28;  // above workload scratch, inside local range
    local.capacity = options.heap_local_bytes;
    local.rank = 0;
    heap->AddTier(local);

    // One tier per FAM chassis (CPU-less NUMA expanders).
    for (int f = 0; f < cluster->num_fams(); ++f) {
      FamChassis* fam = cluster->fam(f);
      MemTier tier;
      tier.name = fam->name();
      tier.caps = fam->expander()->Caps(fam->id());
      tier.base = cluster->FamBase(f);
      tier.capacity = options.heap_fam_bytes;
      tier.rank = f + 1;
      heap->AddTier(tier);
    }
    if (switch_mem_agent_ != nullptr) {
      // The translation cache lives on the host's fabric adapter; the
      // client speaks to the agent over the host's existing dispatcher.
      TranslationCache* cache = host->fha()->EnableTranslationCache(options.xlat_cache);
      switch_mem_clients_.push_back(
          std::make_unique<SwitchMemClient>(engine, options.switch_mem_cfg, host->dispatcher(),
                                            switch_mem_agent_.get(), cache));
      switch_mem_agent_->AttachClientForAudit(switch_mem_clients_.back().get());
      // Disjoint per-host virtual ranges under one shared agent.
      heap->AttachSwitchMem(switch_mem_clients_.back().get(),
                            (1ULL << 50) + static_cast<std::uint64_t>(h) * (1ULL << 40));
    }
    heaps_.push_back(std::move(heap));
  }

  // --- Idempotent tasks over all FAAs (DP#3a). ---------------------------
  if (cluster->num_faas() > 0 && cluster->num_hosts() > 0) {
    itasks_ = std::make_unique<ITaskRuntime>(engine, heaps_[0].get(), etrans_.get(),
                                             host_agents_[0].get(), options.itask);
    for (int a = 0; a < cluster->num_faas(); ++a) {
      itasks_->AddWorker(cluster->faa(a));
    }
  }

  // --- Scalable functions (DP#3b). ---------------------------------------
  for (int a = 0; a < cluster->num_faas(); ++a) {
    sfuncs_.push_back(std::make_unique<ScalableFunctionRuntime>(engine, cluster->faa(a)));
  }
  for (int h = 0; h < cluster->num_hosts(); ++h) {
    sfunc_clients_.push_back(std::make_unique<SFuncClient>(cluster->host(h)->dispatcher()));
  }
}

TenantEngine* UniFabricRuntime::AttachTenants(const ScenarioSpec& spec) {
  tenants_ = std::make_unique<TenantEngine>(this, spec);
  return tenants_.get();
}

}  // namespace unifab
