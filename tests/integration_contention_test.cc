// Cross-module integration tests: multiple cores contending for shared
// host resources (DRAM banks, the FHA), multi-host fabric contention, and
// end-to-end runtime behaviors that only emerge under load.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/core/runtime.h"

namespace unifab {
namespace {

ClusterConfig Shape(int hosts, int fams, int faas) {
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_fams = fams;
  cfg.num_faas = faas;
  return cfg;
}

// Drives `count` dependent remote reads on one core; returns mean ns.
double ChasedRemote(Cluster& cluster, int host, int core_idx, std::uint64_t base, int count) {
  MemoryHierarchy* core = cluster.host(host)->core(core_idx);
  auto remaining = std::make_shared<int>(count);
  auto addr = std::make_shared<std::uint64_t>(base);
  auto lat = std::make_shared<Summary>();
  auto loop = std::make_shared<std::function<void()>>();
  // Capture a raw self-pointer, not the shared_ptr: a closure that owns its
  // own shared_ptr is a reference cycle and leaks. The local `loop` outlives
  // engine().Run(), which drains every pending callback.
  std::function<void()>* self = loop.get();
  *loop = [&cluster, core, remaining, addr, lat, self] {
    if (--*remaining < 0) {
      return;
    }
    *addr += 4160;
    const Tick t0 = cluster.engine().Now();
    core->Access(*addr, false, [&cluster, lat, t0, self] {
      lat->Add(ToNs(cluster.engine().Now() - t0));
      (*self)();
    });
  };
  (*loop)();
  cluster.engine().Run();
  return lat->Mean();
}

TEST(ContentionTest, CoresShareTheHostFha) {
  // One core running alone vs four cores hammering the same FAM: the FHA's
  // outstanding-transaction budget is shared, so per-core latency rises.
  Cluster solo(Shape(1, 1, 0));
  const double alone = ChasedRemote(solo, 0, 0, solo.FamBase(0), 64);

  Cluster busy(Shape(1, 1, 0));
  // Background DMA-style traffic keeps the FHA's 16 transaction slots busy
  // with 4 KiB reads submitted straight at the adapter.
  HostAdapter* fha = busy.host(0)->fha();
  const PbrId fam = busy.fam(0)->id();
  std::vector<std::shared_ptr<std::function<void()>>> chains;
  for (int chain = 0; chain < 16; ++chain) {
    auto addr = std::make_shared<std::uint64_t>(busy.FamBase(0) +
                                                (static_cast<std::uint64_t>(chain) << 22));
    auto ops = std::make_shared<int>(200);
    auto loop = std::make_shared<std::function<void()>>();
    std::function<void()>* self = loop.get();
    *loop = [fha, fam, addr, ops, self] {
      if (--*ops < 0) {
        return;
      }
      *addr += 8256;
      MemRequest req;
      req.type = MemRequest::Type::kRead;
      req.addr = *addr;
      req.bytes = 4096;
      fha->Submit(fam, req, [self](bool ok) {
        EXPECT_TRUE(ok);
        (*self)();
      });
    };
    chains.push_back(loop);  // keep-alive: the closure no longer owns itself
    (*loop)();
  }
  const double contended = ChasedRemote(busy, 0, 0, busy.FamBase(0) + (40ULL << 20), 64);
  EXPECT_GT(contended, alone * 1.2);
}

TEST(ContentionTest, HostsContendAtTheFamNotAtEachOther) {
  // Two hosts reading two different FAMs see no cross-interference through
  // the (non-blocking) switch.
  Cluster cluster(Shape(2, 2, 0));
  const double h0 = ChasedRemote(cluster, 0, 0, cluster.FamBase(0), 48);

  Cluster both(Shape(2, 2, 0));
  // Host 1 hammers FAM1 while host 0 measures FAM0.
  std::vector<std::shared_ptr<std::function<void()>>> chains;
  for (int chain = 0; chain < 8; ++chain) {
    MemoryHierarchy* core = both.host(1)->core(0);
    auto addr = std::make_shared<std::uint64_t>(both.FamBase(1) +
                                                (static_cast<std::uint64_t>(chain) << 22));
    auto ops = std::make_shared<int>(400);
    auto loop = std::make_shared<std::function<void()>>();
    std::function<void()>* self = loop.get();
    *loop = [core, addr, ops, self] {
      if (--*ops < 0) {
        return;
      }
      *addr += 4160;
      core->Access(*addr, false, *self);
    };
    chains.push_back(loop);  // keep-alive: the closure no longer owns itself
    (*loop)();
  }
  const double h0_with_neighbor = ChasedRemote(both, 0, 0, both.FamBase(0), 48);
  EXPECT_NEAR(h0_with_neighbor, h0, h0 * 0.15);
}

TEST(ContentionTest, ExpanderPartitionsKeepHostsApart) {
  Cluster cluster(Shape(2, 1, 0));
  MemoryExpander* exp = cluster.fam(0)->expander();
  const std::uint64_t p0 = exp->CreatePartition(cluster.host(0)->id(), 1 << 20);
  const std::uint64_t p1 = exp->CreatePartition(cluster.host(1)->id(), 1 << 20);
  EXPECT_NE(p0, p1);

  // Each host writes its own partition: no faults.
  exp->SetCurrentRequester(cluster.host(0)->id());
  bool done = false;
  cluster.host(0)->core(0)->Access(cluster.FamBase(0) + p0, true, [&] { done = true; });
  cluster.engine().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(exp->stats().partition_faults, 0u);
}

TEST(ContentionTest, MigrationTrafficSharesFabricWithDemandLoads) {
  // Heap migrations ride the same links as demand misses; a migration storm
  // must not wedge foreground accesses (only slow them).
  Cluster cluster(Shape(1, 1, 0));
  RuntimeOptions opts;
  opts.heap.migration_enabled = true;
  opts.heap.promote_threshold = 0.1;  // migrate eagerly
  opts.heap.epoch_length = FromUs(50.0);
  opts.heap.migration_budget_bytes = 4 << 20;
  UniFabricRuntime runtime(&cluster, opts);
  UnifiedHeap* heap = runtime.heap(0);

  std::vector<ObjectId> objs;
  for (int i = 0; i < 64; ++i) {
    objs.push_back(heap->Allocate(65536, 1));
  }
  // Touch everything so the policy wants all of it promoted, and kick an
  // epoch while the foreground probes run (the heap evaluates epochs lazily
  // on its own accesses).
  for (const ObjectId id : objs) {
    heap->Read(id, nullptr);
  }
  cluster.engine().Schedule(FromUs(55), [heap] { heap->RunEpoch(); });
  int fg_done = 0;
  for (int i = 0; i < 20; ++i) {
    cluster.engine().Schedule(FromUs(10) * static_cast<Tick>(i), [&cluster, &fg_done] {
      cluster.host(0)->core(0)->Access(cluster.FamBase(0) + (48ULL << 20), false,
                                       [&fg_done] { ++fg_done; });
    });
  }
  cluster.engine().Run();
  EXPECT_EQ(fg_done, 20);
  EXPECT_GT(heap->stats().promotions, 0u);
}

TEST(ContentionTest, TasksAndHeapAndArbiterComposeUnderLoad) {
  // Everything at once: tasks on FAAs, bulk eTrans, heap reads — the system
  // must drain with all completions delivered.
  Cluster cluster(Shape(2, 2, 2));
  UniFabricRuntime runtime(&cluster, RuntimeOptions{});
  UnifiedHeap* heap = runtime.heap(0);

  int tasks_done = 0;
  for (int i = 0; i < 12; ++i) {
    TaskSpec t;
    t.name = "work";
    t.inputs = {heap->Allocate(4096)};
    t.outputs = {heap->Allocate(4096)};
    t.compute_cost = FromUs(30.0);
    t.apply = [&tasks_done] { ++tasks_done; };
    runtime.itasks()->Submit(t);
  }

  int transfers_done = 0;
  for (int i = 0; i < 4; ++i) {
    ETransDescriptor d;
    d.src = {Segment{cluster.host(i % 2)->id(), 0, 1 << 20}};
    d.dst = {Segment{cluster.fam(i % 2)->id(), static_cast<std::uint64_t>(i) << 24, 1 << 20}};
    d.attributes.throttled = true;
    TransferFuture f = runtime.etrans()->Submit(runtime.host_agent(i % 2), d);
    f.Then([&transfers_done](const TransferResult&) { ++transfers_done; });
  }

  int reads_done = 0;
  const ObjectId hot = heap->Allocate(1024);
  for (int i = 0; i < 50; ++i) {
    heap->Read(hot, [&reads_done] { ++reads_done; });
  }

  cluster.engine().Run();
  EXPECT_EQ(tasks_done, 12);
  EXPECT_EQ(transfers_done, 4);
  EXPECT_EQ(reads_done, 50);
}

}  // namespace
}  // namespace unifab
