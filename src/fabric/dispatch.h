// Demultiplexes runtime messages arriving at one adapter across services.
//
// Several protocol engines (coherent directory ports, eTrans agents, the
// central arbiter, the idempotent-task runtime, scalable functions) share a
// host's single FHA. Each service claims a service id; message tags encode
// the id in the top byte and the dispatcher routes accordingly.

#ifndef SRC_FABRIC_DISPATCH_H_
#define SRC_FABRIC_DISPATCH_H_

#include <array>
#include <cstdint>

#include "src/fabric/adapter.h"

namespace unifab {

// Well-known service ids.
inline constexpr std::uint8_t kSvcETrans = 2;
inline constexpr std::uint8_t kSvcArbiter = 3;
inline constexpr std::uint8_t kSvcITask = 4;
inline constexpr std::uint8_t kSvcScalableFunc = 5;
inline constexpr std::uint8_t kSvcSwitchMem = 6;
inline constexpr std::uint8_t kSvcCoherent = 7;
inline constexpr std::uint8_t kSvcUser = 32;  // first id free for applications

constexpr std::uint64_t MakeTag(std::uint8_t service, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(service) << 56) | (payload & 0x00FFFFFFFFFFFFFFULL);
}
constexpr std::uint8_t ServiceOf(std::uint64_t tag) { return static_cast<std::uint8_t>(tag >> 56); }
constexpr std::uint64_t TagPayload(std::uint64_t tag) { return tag & 0x00FFFFFFFFFFFFFFULL; }

class MessageDispatcher {
 public:
  // Installs itself as `adapter`'s message handler.
  explicit MessageDispatcher(AdapterBase* adapter) : adapter_(adapter) {
    adapter_->SetMessageHandler([this](const FabricMessage& msg) { Route(msg); });
  }

  MessageDispatcher(const MessageDispatcher&) = delete;
  MessageDispatcher& operator=(const MessageDispatcher&) = delete;

  void RegisterService(std::uint8_t service, MessageHandler handler) {
    handlers_[service] = std::move(handler);
  }

  AdapterBase* adapter() const { return adapter_; }

  // Convenience send that stamps the service id into the tag.
  void Send(PbrId dst, std::uint8_t service, std::uint64_t payload_tag, std::uint32_t bytes,
            std::shared_ptr<void> body, Channel channel = Channel::kMem) {
    adapter_->SendMessage(dst, channel, Opcode::kMsg, MakeTag(service, payload_tag), bytes,
                          std::move(body));
  }

 private:
  void Route(const FabricMessage& msg) {
    const auto& handler = handlers_[ServiceOf(msg.tag)];
    if (handler) {
      handler(msg);
    }
  }

  AdapterBase* adapter_;
  std::array<MessageHandler, 256> handlers_;
};

}  // namespace unifab

#endif  // SRC_FABRIC_DISPATCH_H_
