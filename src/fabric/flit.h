// Flit and transaction definitions for the simulated memory fabric.
//
// The simulator follows the CXL Flex Bus framing model (paper §2.1): the
// transaction layer produces channel-tagged requests, the link layer moves
// fixed-size flits under credit-based flow control, and the physical layer
// charges serialization time per flit.

#ifndef SRC_FABRIC_FLIT_H_
#define SRC_FABRIC_FLIT_H_

#include <cstdint>
#include <memory>

#include "src/sim/time.h"

namespace unifab {

// 12-bit port-based-routing identifier (paper §2.1: up to 4096 edge ports
// per domain). The upper 4 bits of the 16-bit value carry the domain number
// used for hierarchy-based routing between domains.
using PbrId = std::uint16_t;

inline constexpr PbrId kInvalidPbrId = 0xFFFF;
inline constexpr PbrId kPbrIdMask = 0x0FFF;
inline constexpr int kDomainShift = 12;
// The 4-bit domain field caps a topology (and thus a pod cluster) at this
// many fabric domains.
inline constexpr int kMaxFabricDomains = 1 << (16 - kDomainShift);

constexpr PbrId MakePbrId(std::uint16_t domain, std::uint16_t port) {
  return static_cast<PbrId>((domain << kDomainShift) | (port & kPbrIdMask));
}
constexpr std::uint16_t DomainOf(PbrId id) { return static_cast<std::uint16_t>(id >> kDomainShift); }
constexpr std::uint16_t PortOf(PbrId id) { return static_cast<std::uint16_t>(id & kPbrIdMask); }

// CXL channel semantics (paper §2.1). kControl models the dedicated in-band
// control lane that design principle #4 dedicates to the central arbiter.
enum class Channel : std::uint8_t {
  kIo = 0,      // CXL.io: PCIe-style configuration / bulk
  kMem = 1,     // CXL.mem: host load/store to device memory
  kCache = 2,   // CXL.cache: coherence snoops and responses
  kControl = 3  // dedicated arbiter lane (FCC DP#4)
};

inline constexpr int kNumChannels = 4;

const char* ChannelName(Channel c);

// Flit operation codes. Request/response pairing is by transaction id.
enum class Opcode : std::uint8_t {
  kMemRd,        // read request
  kMemRdData,    // read completion carrying data
  kMemWr,        // write request carrying data
  kMemWrAck,     // write completion
  kSnpInv,       // coherence: invalidate snoop
  kSnpData,      // coherence: data-forward snoop
  kSnpResp,      // coherence: snoop response
  kCfgRd,        // fabric-manager configuration read
  kCfgWr,        // fabric-manager configuration write
  kCfgResp,      // configuration completion
  kMsg,          // runtime message (scalable functions, eTrans control)
  kCreditQuery,  // arbiter control-plane ops (DP#4)
  kCreditGrant,
};

// Physical-layer flit framing (paper §2.1: 68B and 256B modes).
enum class FlitMode : std::uint8_t { k68B, k256B };

// Bytes a single flit occupies on the wire.
constexpr std::uint32_t FlitWireBytes(FlitMode mode) {
  return mode == FlitMode::k68B ? 68 : 256;
}

// Data payload bytes one flit can carry (one cacheline in 68B mode; three
// slots of the 256B flit carry data, the rest is header/CRC).
constexpr std::uint32_t FlitPayloadCapacity(FlitMode mode) {
  return mode == FlitMode::k68B ? 64 : 192;
}

// One link-layer flit. Flits are small value types; data payloads are
// modelled by byte counts only (the simulator tracks timing and protocol
// state, not memory contents — content fidelity lives in src/mem).
struct Flit {
  std::uint64_t txn_id = 0;   // transaction this flit belongs to
  std::uint32_t seq = 0;      // position within the transaction
  std::uint32_t total = 1;    // flits in the transaction
  Channel channel = Channel::kMem;
  Opcode opcode = Opcode::kMemRd;
  PbrId src = kInvalidPbrId;
  PbrId dst = kInvalidPbrId;
  std::uint64_t addr = 0;
  std::uint32_t payload_bytes = 0;  // data bytes carried by this flit
  std::uint32_t request_bytes = 0;  // total bytes the transaction reads/writes
  Tick created_at = 0;
  std::uint16_t hops = 0;

  // Runtime messaging (kMsg / kCredit*): a user-defined tag plus an opaque
  // payload handle. The fabric only times the payload (payload_bytes); it
  // never inspects the body.
  std::uint64_t tag = 0;
  std::shared_ptr<void> body;
};

}  // namespace unifab

#endif  // SRC_FABRIC_FLIT_H_
