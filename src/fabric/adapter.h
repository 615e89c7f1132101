// Fabric host adapter (FHA) and fabric endpoint adapter (FEA).
//
// The FHA sits at a host root port: it converts memory transactions into
// routable flits, enforces an outstanding-transaction (MSHR) limit — the
// quantity that bounds how much fabric throughput one core can drive
// (paper §3 Difference #1) — and reassembles completions. The FEA fronts a
// remote device: it terminates the fabric protocol and converts between
// flits and device-dependent reads/writes (paper §2.2). Both adapters also
// carry runtime messages (kMsg / kCredit*) for the FCC layer.

#ifndef SRC_FABRIC_ADAPTER_H_
#define SRC_FABRIC_ADAPTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/fabric/flit.h"
#include "src/fabric/link.h"
#include "src/fabric/switch/xlat_cache.h"
#include "src/sim/audit.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace unifab {

// A memory transaction as seen by the transaction layer.
struct MemRequest {
  enum class Type { kRead, kWrite };
  Type type = Type::kRead;
  std::uint64_t addr = 0;
  std::uint32_t bytes = 64;
  Channel channel = Channel::kMem;
};

// Completion callback; fires exactly once per transaction. `ok` is true when
// the last flit of the response has been processed by the adapter, false
// when the adapter failed the transaction instead: its link epoch changed
// underneath the outstanding MSHR, or no response arrived by the deadline.
using MemStatusCompletion = std::function<void(bool ok)>;

// A runtime message delivered by an adapter.
struct FabricMessage {
  PbrId src = kInvalidPbrId;
  Opcode opcode = Opcode::kMsg;
  std::uint64_t tag = 0;
  std::uint32_t bytes = 0;
  std::shared_ptr<void> body;
};

using MessageHandler = std::function<void(const FabricMessage&)>;

// The device behind an FEA. Implementations live in src/mem (DRAM modules,
// memory-node controllers) and src/topo (accelerators).
class FabricTarget {
 public:
  virtual ~FabricTarget() = default;
  virtual void HandleRead(std::uint64_t addr, std::uint32_t bytes, std::function<void()> done) = 0;
  virtual void HandleWrite(std::uint64_t addr, std::uint32_t bytes,
                           std::function<void()> done) = 0;
};

struct AdapterConfig {
  Tick request_proc_latency = FromNs(50.0);   // flit build / protocol conversion
  Tick response_proc_latency = FromNs(50.0);  // completion parse and delivery
  std::uint32_t max_outstanding = 16;         // MSHR-like transaction limit
  FlitMode flit_mode = FlitMode::k68B;        // must match the attached link
  // A transaction whose response hasn't arrived by then is failed and its
  // MSHR reclaimed — without this, a request black-holed by a failed link
  // elsewhere in the fabric strands an MSHR forever and the (small) pool
  // wedges the adapter permanently. Must be > 0. Far above any legitimate
  // completion time so it only fires on loss.
  Tick mshr_timeout = FromUs(250.0);
};

struct AdapterStats {
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t mshr_failures = 0;  // outstanding txns failed by a link epoch change
  std::uint64_t mshr_timeouts = 0;  // outstanding txns failed by the response deadline
  Summary txn_latency_ns;           // submit-to-completion, per transaction

  void BindTo(MetricGroup& group, const std::string& prefix = "") const;
};

// Shared flit segmentation / egress machinery for both adapter kinds.
class AdapterBase : public FlitReceiver {
 public:
  AdapterBase(Engine* engine, const AdapterConfig& config, PbrId id, std::string name);
  ~AdapterBase() override = default;

  // Attaches the adapter's single fabric port.
  void AttachLink(LinkEndpoint* endpoint);

  // Sends a runtime message (no completion tracking). Large payloads are
  // segmented into multiple flits; the handler fires at the destination when
  // the last flit lands.
  void SendMessage(PbrId dst, Channel channel, Opcode opcode, std::uint64_t tag,
                   std::uint32_t bytes, std::shared_ptr<void> body);

  void SetMessageHandler(MessageHandler handler) { message_handler_ = std::move(handler); }

  // Provisions the DeACT-style translation cache this adapter consults for
  // fabric-virtual addresses (switch-resident memory control). Stats bind
  // under the adapter's metric group as "xlat/*". Returns the cache; it
  // stays owned by the adapter. nullptr from translation_cache() until
  // enabled.
  TranslationCache* EnableTranslationCache(const TranslationCacheConfig& config);
  TranslationCache* translation_cache() const { return xlat_cache_.get(); }

  // FlitReceiver: a link epoch change invalidates partially reassembled
  // transactions from the dead epoch (their missing flits will never come).
  void OnLinkEpochChange(int port, bool link_up) override;

  PbrId id() const { return id_; }
  const std::string& name() const { return name_; }
  const AdapterStats& stats() const { return stats_; }
  Engine* engine() const { return engine_; }

 protected:
  // Queues flits for transmission, draining into the link as space allows.
  void Egress(Flit flit);
  void PumpEgress();
  std::uint64_t NextTxnId() { return next_txn_id_++; }
  std::uint32_t PayloadCap() const { return FlitPayloadCapacity(config_.flit_mode); }

  // Reassembles multi-flit messages; returns true when `flit` completes its
  // transaction. Replayed flits on lossy links deliver out of order, so the
  // body (riding the final-sequence flit) is banked per transaction and
  // handed back through `body_out` on completion — the completing flit is
  // not necessarily the one that carried it.
  bool Reassemble(const Flit& flit, std::shared_ptr<void>* body_out = nullptr);

  void DeliverMessage(const Flit& last_flit, std::shared_ptr<void> body);

  struct RxProgress {
    std::uint32_t seen = 0;
    std::shared_ptr<void> body;
  };

  Engine* engine_;
  AdapterConfig config_;
  PbrId id_;
  std::string name_;
  LinkEndpoint* link_ = nullptr;
  std::deque<Flit> egress_;
  std::unordered_map<std::uint64_t, RxProgress> rx_progress_;  // txn -> reassembly state
  MessageHandler message_handler_;
  std::unique_ptr<TranslationCache> xlat_cache_;
  AdapterStats stats_;
  MetricGroup metrics_;
  std::uint64_t next_txn_id_ = 1;
};

// Host-side adapter.
class HostAdapter : public AdapterBase {
 public:
  HostAdapter(Engine* engine, const AdapterConfig& config, PbrId id, std::string name);

  // Submits a memory transaction to the remote node `dst`. Requests beyond
  // the MSHR limit queue inside the adapter. `on_complete` (may be null)
  // fires once, with ok = false if the transaction failed.
  void Submit(PbrId dst, const MemRequest& request, MemStatusCompletion on_complete);

  std::size_t Outstanding() const { return outstanding_.size(); }
  std::size_t QueuedRequests() const { return pending_.size(); }

  void ReceiveFlit(const Flit& flit, int port) override;

  // On the down transition, fails every MSHR whose request already left for
  // the fabric: its response died with the old epoch.
  void OnLinkEpochChange(int port, bool link_up) override;

 private:
  struct PendingRequest {
    PbrId dst;
    MemRequest request;
    MemStatusCompletion on_complete;
  };

  struct OutstandingTxn {
    MemRequest request;
    MemStatusCompletion on_complete;
    Tick submitted_at;
    EventId timeout = kInvalidEventId;
  };

  void IssueReady();
  void IssueNow(PendingRequest pr);
  void CompleteTxn(std::uint64_t txn_id);
  void TimeoutTxn(std::uint64_t txn_id);

  std::deque<PendingRequest> pending_;
  std::unordered_map<std::uint64_t, OutstandingTxn> outstanding_;
  AuditScope audit_;  // after the state the checks read

  friend class AuditTestPeer;
};

// Device-side adapter.
class EndpointAdapter : public AdapterBase {
 public:
  EndpointAdapter(Engine* engine, const AdapterConfig& config, PbrId id, std::string name,
                  FabricTarget* target);

  void ReceiveFlit(const Flit& flit, int port) override;

 private:
  void ServeRead(const Flit& request);
  void ServeWrite(const Flit& last_flit);
  void SendResponse(const Flit& request, Opcode opcode, std::uint32_t bytes);

  FabricTarget* target_;
};

}  // namespace unifab

#endif  // SRC_FABRIC_ADAPTER_H_
