// Link-failure and fabric-manager re-routing tests (paper §3 Difference #5
// applied to the interconnect itself, plus the fabric manager's role from
// §2.1: the routing tables are its to rebuild).

#include <gtest/gtest.h>

#include <cstdio>

#include <memory>
#include <string>

#include "src/core/cohptr.h"
#include "src/core/runtime.h"
#include "src/fabric/dispatch.h"
#include "src/fabric/interconnect.h"
#include "src/mem/dram.h"
#include "src/mem/hierarchy.h"
#include "src/topo/faults.h"
#include "src/topo/presets.h"

namespace unifab {
namespace {

AdapterConfig Lean() {
  AdapterConfig cfg;
  cfg.request_proc_latency = FromNs(20);
  cfg.response_proc_latency = FromNs(20);
  return cfg;
}

// Redundant topology: two switches joined by TWO trunks; a host on sw0 and
// a FAM on sw1.
struct RedundantRig {
  RedundantRig() : fabric(&engine, 3) {
    sw0 = fabric.AddSwitch(SwitchConfig{}, "sw0");
    sw1 = fabric.AddSwitch(SwitchConfig{}, "sw1");
    trunk_a = fabric.Connect(sw0, sw1, LinkConfig{});
    trunk_b = fabric.Connect(sw0, sw1, LinkConfig{});
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "dram");
    host = fabric.AddHostAdapter(Lean(), "host");
    fea = fabric.AddEndpointAdapter(Lean(), "fea", dram.get());
    fabric.Connect(sw0, host, LinkConfig{});
    fabric.Connect(sw1, fea, LinkConfig{});
    fabric.ConfigureRouting();
  }

  // A failed request ends only at its MSHR deadline, after this returns, so
  // the completion must not point into this frame.
  bool RoundTrip() {
    auto done = std::make_shared<bool>(false);
    MemRequest req;
    req.type = MemRequest::Type::kRead;
    req.bytes = 64;
    host->Submit(fea->id(), req, [done](bool ok) { *done = ok; });
    engine.RunFor(FromUs(50));
    return *done;
  }

  Engine engine;
  FabricInterconnect fabric;
  FabricSwitch* sw0;
  FabricSwitch* sw1;
  Link* trunk_a;
  Link* trunk_b;
  std::unique_ptr<DramDevice> dram;
  HostAdapter* host;
  EndpointAdapter* fea;
};

TEST(LinkFailureTest, FailedLinkRefusesSends) {
  Engine engine;
  Link link(&engine, LinkConfig{}, 1, "l");
  link.Fail();
  Flit f;
  f.channel = Channel::kMem;
  EXPECT_FALSE(link.end(0).Send(f));
  link.Recover();
  // Recovered link accepts again (no receiver bound, so don't run).
  EXPECT_TRUE(link.end(0).Send(f));
}

TEST(LinkFailureTest, InFlightFlitsAreDropped) {
  Engine engine;
  LinkConfig cfg;
  cfg.propagation = FromUs(1);  // long flight time
  Link link(&engine, cfg, 1, "l");

  struct Counter : FlitReceiver {
    int received = 0;
    void ReceiveFlit(const Flit&, int) override { ++received; }
  } rx;
  link.end(0).Bind(nullptr, 0);
  link.end(1).Bind(&rx, 0);

  Flit f;
  f.channel = Channel::kMem;
  ASSERT_TRUE(link.end(0).Send(f));
  engine.RunFor(FromNs(100));  // flit is on the wire
  link.Fail();
  engine.Run();
  EXPECT_EQ(rx.received, 0);
  // The loss is accounted, not silent: at quiescence every accepted flit
  // was either delivered or recorded as dropped by the failure.
  EXPECT_EQ(link.stats(0).dropped_on_fail, 1u);
  EXPECT_EQ(link.stats(0).flits_accepted,
            link.stats(0).flits_delivered + link.stats(0).dropped_on_fail);
}

TEST(LinkFailureTest, EpochChangeNotifiesBoundReceivers) {
  Engine engine;
  Link link(&engine, LinkConfig{}, 1, "l");

  struct EpochWatcher : FlitReceiver {
    int downs = 0;
    int ups = 0;
    void ReceiveFlit(const Flit&, int) override {}
    void OnLinkEpochChange(int, bool link_up) override {
      if (link_up) {
        ++ups;
      } else {
        ++downs;
      }
    }
  } a, b;
  link.end(0).Bind(&b, 0);  // dirs_[0].receiver is side 1's component
  link.end(1).Bind(&a, 0);

  link.Fail();
  EXPECT_EQ(a.downs, 1);
  EXPECT_EQ(b.downs, 1);
  link.Recover();
  EXPECT_EQ(a.ups, 1);
  EXPECT_EQ(b.ups, 1);
}

TEST(FailoverTest, TrunkFailureReroutesOverRedundantPath) {
  RedundantRig rig;
  ASSERT_TRUE(rig.RoundTrip());

  // Kill the trunk currently carrying traffic; without re-routing, requests
  // black-hole.
  rig.trunk_a->Fail();
  const bool before_reroute = rig.RoundTrip();

  rig.fabric.ConfigureRouting();  // fabric manager repairs the tables
  EXPECT_TRUE(rig.RoundTrip());

  // Either the first trunk wasn't the active one (so traffic never stopped)
  // or re-routing fixed it; in both cases the post-reroute path works.
  (void)before_reroute;
  EXPECT_EQ(rig.fabric.HopCount(rig.host->id(), rig.fea->id()), 3);
}

TEST(FailoverTest, BothTrunksDownMakesTargetUnreachable) {
  RedundantRig rig;
  rig.trunk_a->Fail();
  rig.trunk_b->Fail();
  rig.fabric.ConfigureRouting();
  EXPECT_EQ(rig.fabric.HopCount(rig.host->id(), rig.fea->id()), -1);
  EXPECT_FALSE(rig.RoundTrip());
}

TEST(FailoverTest, RecoveryRestoresOriginalPath) {
  RedundantRig rig;
  rig.trunk_a->Fail();
  rig.trunk_b->Fail();
  rig.fabric.ConfigureRouting();
  ASSERT_FALSE(rig.RoundTrip());

  rig.trunk_b->Recover();
  rig.fabric.ConfigureRouting();
  EXPECT_TRUE(rig.RoundTrip());
}

TEST(FailoverTest, EdgeLinkFailureIsolatesOnlyThatAdapter) {
  // Two hosts on one switch; killing host0's link must not disturb host1.
  Engine engine;
  FabricInterconnect fabric(&engine, 9);
  auto* sw = fabric.AddSwitch(SwitchConfig{}, "sw");
  DramDevice dram(&engine, OmegaLocalDram(), "d");
  auto* fea = fabric.AddEndpointAdapter(Lean(), "fea", &dram);
  fabric.Connect(sw, fea, LinkConfig{});
  auto* h0 = fabric.AddHostAdapter(Lean(), "h0");
  Link* l0 = fabric.Connect(sw, h0, LinkConfig{});
  auto* h1 = fabric.AddHostAdapter(Lean(), "h1");
  fabric.Connect(sw, h1, LinkConfig{});
  fabric.ConfigureRouting();

  l0->Fail();
  bool h1_done = false;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.bytes = 64;
  h1->Submit(fea->id(), req, [&](bool ok) { h1_done = ok; });
  engine.RunFor(FromUs(50));
  EXPECT_TRUE(h1_done);
  EXPECT_EQ(fabric.HopCount(h0->id(), fea->id()), -1);
}

// ------------------------- MSHR failure handling -------------------------

// Single switch, one host, one FEA-fronted DRAM. Returns via out-params so
// tests can poke the links directly.
struct MshrRig {
  MshrRig() : fabric(&engine, 31) {
    sw = fabric.AddSwitch(SwitchConfig{}, "sw");
    dram = std::make_unique<DramDevice>(&engine, OmegaLocalDram(), "dram");
    fea = fabric.AddEndpointAdapter(Lean(), "fea", dram.get());
    fea_link = fabric.Connect(sw, fea, LinkConfig{});
    host = fabric.AddHostAdapter(Lean(), "host");
    host_link = fabric.Connect(sw, host, LinkConfig{});
    fabric.ConfigureRouting();
  }

  Engine engine;
  FabricInterconnect fabric;
  FabricSwitch* sw;
  std::unique_ptr<DramDevice> dram;
  EndpointAdapter* fea;
  HostAdapter* host;
  Link* fea_link;
  Link* host_link;
};

TEST(MshrTest, OwnLinkEpochChangeFailsOutstandingTransactions) {
  MshrRig rig;
  int ok_count = 0;
  int fail_count = 0;
  MemRequest req;
  req.type = MemRequest::Type::kRead;
  req.bytes = 64;
  rig.host->Submit(rig.fea->id(), req, [&](bool ok) {
    ok ? ++ok_count : ++fail_count;
  });
  // Let the request leave the adapter (MSHR allocated), then cut the host's
  // own link before the response can return.
  rig.engine.RunFor(FromNs(100));
  ASSERT_EQ(rig.host->Outstanding(), 1u);
  rig.host_link->Fail();
  EXPECT_EQ(fail_count, 1);  // failed synchronously by the epoch change
  EXPECT_EQ(rig.host->Outstanding(), 0u);
  EXPECT_GE(rig.host->stats().mshr_failures, 1u);
  rig.engine.Run();
  EXPECT_EQ(ok_count, 0);  // a late response finds no MSHR
}

TEST(MshrTest, BlackholedRequestTimesOutAndReclaimsMshr) {
  MshrRig rig;
  // The REMOTE edge fails: the host's own link never changes epoch, so the
  // request is silently dropped at the switch and only the response deadline
  // can reclaim the MSHR.
  rig.fea_link->Fail();
  bool completed = false;
  bool status_ok = true;
  MemRequest req;
  req.type = MemRequest::Type::kWrite;
  req.bytes = 256;
  rig.host->Submit(rig.fea->id(), req, [&](bool ok) {
    completed = true;
    status_ok = ok;
  });
  rig.engine.Run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(status_ok);
  EXPECT_EQ(rig.host->Outstanding(), 0u);
  EXPECT_EQ(rig.host->stats().mshr_timeouts, 1u);
}

// A core whose cacheline misses go to the FEA's DRAM through the rig's host
// adapter (no local memory: every miss crosses the fabric).
struct CoreRig : MshrRig {
  CoreRig() : core(&engine, OmegaHostHierarchy(), "core") {
    core.MapRemote(0, 1ULL << 30, fea->id());
    core.SetFabricAdapter(host);
  }

  MemoryHierarchy core;
};

TEST(MshrTest, FailedCachelineMissRetiresPoisonedAndFreesItsMshr) {
  CoreRig rig;
  // The FAM's edge link is down: the fetch is black-holed and only the
  // adapter's MSHR deadline ends it.
  rig.fea_link->Fail();
  int done = 0;
  rig.core.Access(0x1040, /*is_write=*/false, [&] { ++done; });
  rig.engine.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rig.core.MshrsInUse(), 0u);
  EXPECT_EQ(rig.core.stats().poisoned, 1u);
  EXPECT_EQ(rig.core.stats().misses_completed, 0u);
  EXPECT_FALSE(rig.core.LinePresent(0x1040));  // poisoned data is not cached
  EXPECT_EQ(rig.host->stats().mshr_timeouts, 1u);
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());

  // Once the link is back, the same load fills the line.
  rig.fea_link->Recover();
  rig.core.Access(0x1040, /*is_write=*/false, [&] { ++done; });
  rig.engine.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(rig.core.stats().misses_completed, 1u);
  EXPECT_TRUE(rig.core.LinePresent(0x1040));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

TEST(MshrTest, FailedFlushStillCompletesAndIsCounted) {
  CoreRig rig;
  bool stored = false;
  rig.core.Access(0x2000, /*is_write=*/true, [&] { stored = true; });
  rig.engine.Run();
  ASSERT_TRUE(stored);
  rig.fea_link->Fail();
  int flushed = 0;
  rig.core.FlushLine(0x2000, [&] { ++flushed; });
  rig.engine.Run();
  EXPECT_EQ(flushed, 1);
  EXPECT_EQ(rig.core.stats().writebacks_failed, 1u);
  EXPECT_EQ(rig.core.stats().poisoned, 0u);
  // The store never became durable, so the line stays dirty...
  EXPECT_TRUE(rig.core.l1().IsDirty(0x2000) || rig.core.l2().IsDirty(0x2000));

  // ...and once the link is back the next flush writes it back.
  rig.fea_link->Recover();
  rig.core.FlushLine(0x2000, [&] { ++flushed; });
  rig.engine.Run();
  EXPECT_EQ(flushed, 2);
  EXPECT_EQ(rig.core.stats().writebacks_to_memory, 2u);
  EXPECT_EQ(rig.core.stats().writebacks_failed, 1u);
  EXPECT_FALSE(rig.core.l1().IsDirty(0x2000) || rig.core.l2().IsDirty(0x2000));
  EXPECT_TRUE(rig.engine.audit().Sweep().empty());
}

// --------------------------- Fault-plan parsing ---------------------------

TEST(FaultPlanTest, ParsesDirectivesCommentsAndSeparators) {
  const FaultPlan plan = FaultPlan::Parse(
      "# campaign\n"
      "fail trunk @100; recover trunk @350\n"
      "\n"
      "fail fam0 @500   # inline trailing directive-free comment line\n");
  ASSERT_TRUE(plan.ok()) << (plan.errors.empty() ? "" : plan.errors.front());
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultEvent::Kind::kFail);
  EXPECT_EQ(plan.events[0].target, "trunk");
  EXPECT_EQ(plan.events[0].at, FromUs(100.0));
  EXPECT_EQ(plan.events[1].kind, FaultEvent::Kind::kRecover);
  EXPECT_EQ(plan.events[1].at, FromUs(350.0));
  EXPECT_EQ(plan.events[2].target, "fam0");
}

TEST(FaultPlanTest, FlapExpandsIntoFailRecoverPairs) {
  const FaultPlan plan =
      FaultPlan::Parse("flap lnk start=100 period=1000 down=200 cycles=3");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.events.size(), 6u);
  for (int k = 0; k < 3; ++k) {
    const auto& f = plan.events[static_cast<std::size_t>(2 * k)];
    const auto& r = plan.events[static_cast<std::size_t>(2 * k + 1)];
    EXPECT_EQ(f.kind, FaultEvent::Kind::kFail);
    EXPECT_EQ(f.at, FromUs(100.0 + 1000.0 * k));
    EXPECT_EQ(r.kind, FaultEvent::Kind::kRecover);
    EXPECT_EQ(r.at, FromUs(300.0 + 1000.0 * k));
  }
}

TEST(FaultPlanTest, MalformedDirectivesAreReported) {
  const FaultPlan plan = FaultPlan::Parse(
      "fail trunk\n"                                      // missing @time
      "explode trunk @10\n"                               // unknown verb
      "flap l start=0 period=100 down=150 cycles=2\n");   // down >= period
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.errors.size(), 3u);
  EXPECT_TRUE(plan.events.empty());
}

TEST(FaultSchedulerTest, UnknownTargetsAreCountedNotFatal) {
  Engine engine;
  FaultScheduler faults(&engine, nullptr);
  faults.Schedule(FaultPlan::Parse("fail ghost @10; recover ghost @20"));
  engine.Run();
  EXPECT_EQ(faults.stats().unknown_targets, 2u);
  EXPECT_EQ(faults.stats().faults_injected, 0u);
}

// ----------------------- Runtime-level recovery ---------------------------

struct RuntimeRecoveryRig {
  explicit RuntimeRecoveryRig(int faas = 0) {
    ClusterConfig cfg;
    cfg.num_hosts = 1;
    cfg.num_fams = 1;
    cfg.num_faas = faas;
    cluster = std::make_unique<Cluster>(cfg);
    runtime = std::make_unique<UniFabricRuntime>(cluster.get(), RuntimeOptions{});
    faults = std::make_unique<FaultScheduler>(&cluster->engine(), &cluster->fabric());
    faults->RegisterChassis("fam0", cluster->fam(0),
                            cluster->fabric().LinkTo(cluster->fam(0)->id()));
    if (faas > 0) {
      faults->RegisterChassis("faa0", cluster->faa(0),
                              cluster->fabric().LinkTo(cluster->faa(0)->id()));
    }
  }

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<UniFabricRuntime> runtime;
  std::unique_ptr<FaultScheduler> faults;
};

TEST(RuntimeRecoveryTest, HeapMigrationRecoversAcrossLinkOutage) {
  RuntimeRecoveryRig rig;
  UnifiedHeap* heap = rig.runtime->heap(0);
  const ObjectId id = heap->Allocate(65536, 0);
  ASSERT_NE(id, kInvalidObject);

  rig.faults->Schedule(FaultPlan::Parse("fail fam0 @1\nrecover fam0 @600"));

  bool done = false;
  bool migrated_ok = false;
  heap->Migrate(id, 1, [&](bool ok) {
    done = true;
    migrated_ok = ok;
  });
  rig.cluster->engine().Run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(migrated_ok);
  EXPECT_EQ(heap->TierOf(id), 1);
  EXPECT_EQ(heap->stats().migrations_failed, 0u);
  EXPECT_EQ(heap->stats().bytes_migrated, 65536u);
  // The outage was survived via the retry path, and the campaign ran fully.
  EXPECT_GE(rig.runtime->etrans()->recovery_stats().retries, 1u);
  EXPECT_EQ(rig.runtime->etrans()->recovery_stats().jobs_recovered, 1u);
  EXPECT_EQ(rig.runtime->etrans()->recovery_stats().jobs_aborted, 0u);
  EXPECT_EQ(rig.faults->stats().faults_injected, 1u);
  EXPECT_EQ(rig.faults->stats().recoveries, 1u);
}

TEST(RuntimeRecoveryTest, PermanentFailureRollsBackMigration) {
  RuntimeRecoveryRig rig;
  UnifiedHeap* heap = rig.runtime->heap(0);
  const ObjectId id = heap->Allocate(65536, 0);
  ASSERT_NE(id, kInvalidObject);
  const std::uint64_t tier0_used = heap->TierUsed(0);

  rig.faults->Schedule(FaultPlan::Parse("fail fam0 @1"));  // never recovers

  bool done = false;
  bool migrated_ok = true;
  heap->Migrate(id, 1, [&](bool ok) {
    done = true;
    migrated_ok = ok;
  });
  rig.cluster->engine().Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(migrated_ok);
  // Rolled back cleanly: same tier, dst reservation returned, still usable.
  EXPECT_EQ(heap->TierOf(id), 0);
  EXPECT_EQ(heap->TierUsed(1), 0u);
  EXPECT_EQ(heap->TierUsed(0), tier0_used);
  EXPECT_EQ(heap->stats().migrations_failed, 1u);
  EXPECT_FALSE(heap->Info(id).migrating);
  EXPECT_GE(rig.runtime->etrans()->recovery_stats().jobs_aborted, 1u);

  bool read_done = false;
  heap->Read(id, [&] { read_done = true; });
  rig.cluster->engine().Run();
  EXPECT_TRUE(read_done);

  // The recovery telemetry is part of the registry snapshot.
  const std::string snap = rig.cluster->engine().metrics().SnapshotJson();
  EXPECT_NE(snap.find("recovery/etrans"), std::string::npos);
  EXPECT_NE(snap.find("recovery/faults"), std::string::npos);
}

TEST(RuntimeRecoveryTest, TaskJobCompletesAcrossFaaOutage) {
  RuntimeRecoveryRig rig(/*faas=*/1);
  UnifiedHeap* heap = rig.runtime->heap(0);
  ITaskRuntime* itasks = rig.runtime->itasks();

  const ObjectId in = heap->Allocate(65536, 0);
  const ObjectId out = heap->Allocate(65536, 0);
  ASSERT_NE(in, kInvalidObject);
  ASSERT_NE(out, kInvalidObject);

  // Chassis power loss mid-job: uplink AND accelerator down, queued kernels
  // lost. The idempotent-task runtime must redrive until commit.
  rig.faults->Schedule(FaultPlan::Parse("fail faa0 @20\nrecover faa0 @900"));

  int committed = 0;
  std::vector<TaskId> ids;
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.name = "t";
    spec.name += std::to_string(i);
    spec.inputs = {in};
    spec.outputs = {out};
    spec.compute_cost = FromUs(15.0);
    spec.apply = [&] { ++committed; };
    ids.push_back(itasks->Submit(spec));
  }
  bool all_done = false;
  itasks->OnAllComplete([&] { all_done = true; });
  rig.cluster->engine().Run();

  EXPECT_TRUE(all_done);
  EXPECT_EQ(committed, 3);
  for (const TaskId id : ids) {
    EXPECT_TRUE(itasks->TaskDone(id));
  }
  EXPECT_EQ(itasks->stats().completed, 3u);
  EXPECT_GE(itasks->stats().attempts, 3u);
  EXPECT_EQ(itasks->tasks_pending(), 0u);
}

// ------------- coherent window under chassis fault campaigns --------------

struct Rec {
  std::int64_t value = 0;
};

// A chassis outage in the middle of an invalidation handshake: the write
// must either complete (ok=true) or fail terminally (ok=false) with the
// host-side shadow untouched — a stale Modified line must never be readable
// anywhere. After recovery the protocol must work again.
TEST(RuntimeRecoveryTest, CoherentWriteDuringChassisFlapFailsTerminallyOrCompletes) {
  ClusterConfig ccfg;
  ccfg.num_hosts = 2;
  ccfg.num_fams = 1;
  ccfg.num_faas = 0;
  Cluster cluster(ccfg);
  RuntimeOptions opts;
  opts.coherent_window = true;
  opts.coherent.ack_deadline = FromUs(20.0);
  opts.coherent.txn_deadline = FromUs(50.0);
  UniFabricRuntime runtime(&cluster, opts);
  FaultScheduler faults(&cluster.engine(), &cluster.fabric());
  faults.RegisterChassis("fam0", cluster.fam(0),
                         cluster.fabric().LinkTo(cluster.fam(0)->id()));

  CoherentWindow* window = runtime.coherent_window();
  auto rec = CohPtr<Rec>::Make(window, Rec{5});
  const std::uint64_t addr = rec.addr();

  // Warm a shared copy at host 0, so host 1's write needs an invalidation.
  bool warm = false;
  rec.Read(runtime.coherent_port(0), [&](const Rec& r, bool ok) {
    warm = ok && r.value == 5;
  });
  cluster.engine().Run();
  ASSERT_TRUE(warm);

  // The chassis goes down right as the write's GetM is in flight and stays
  // down past both deadlines (plan times are microseconds); the handshake
  // cannot complete.
  const double t0_us = ToNs(cluster.engine().Now()) / 1000.0;
  char plan[96];
  std::snprintf(plan, sizeof(plan), "flap fam0 start=%.3f period=200 down=80 cycles=1",
                t0_us + 0.1);
  faults.Schedule(FaultPlan::Parse(plan));
  bool done = false;
  bool ok = true;
  rec.Write(runtime.coherent_port(1), Rec{99}, [&](bool k) {
    done = true;
    ok = k;
  });
  cluster.engine().Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  // Never-observable failed write: shadow still holds the committed value,
  // and no port is left holding a Modified line the directory or the fault
  // didn't account for.
  EXPECT_EQ(rec.Peek().value, 5);
  CoherentDirectory* dir = runtime.coherent_directory();
  for (int h = 0; h < 2; ++h) {
    if (runtime.coherent_port(h)->HoldsModified(addr)) {
      EXPECT_EQ(dir->StateOf(addr), CoherentDirectory::BlockState::kModified);
      EXPECT_EQ(dir->OwnerOf(addr), h);
    }
  }
  EXPECT_GT(runtime.coherent_port(1)->stats().txn_failures, 0u);

  // The chassis is back: the same write now completes and is visible at the
  // other host through the protocol.
  bool redo_ok = false;
  rec.Write(runtime.coherent_port(1), Rec{42}, [&](bool k) { redo_ok = k; });
  cluster.engine().Run();
  EXPECT_TRUE(redo_ok);
  std::int64_t seen = -1;
  bool read_ok = false;
  rec.Read(runtime.coherent_port(0), [&](const Rec& r, bool k) {
    seen = r.value;
    read_ok = k;
  });
  cluster.engine().Run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(faults.stats().faults_injected, 1u);
  EXPECT_EQ(faults.stats().recoveries, 1u);
  EXPECT_TRUE(cluster.engine().audit().Sweep().empty());
}

}  // namespace
}  // namespace unifab
