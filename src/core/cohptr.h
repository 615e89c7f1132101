// CohPtr<T>: coherent smart pointer over the CXL.cache-style coherent
// window (the hardware-coherence sibling of UniPtr<T>).
//
// A CohPtr owns one object in a CoherentWindow. Its timed accessors ride
// the directory protocol through a host's CoherentPort: reads touch every
// coherence block the object spans (hits are port-cache hits once the
// blocks are resident; invalidations by remote writers force re-fetches),
// writes acquire the covered blocks exclusively. Completions carry an `ok`
// flag — under partial failure a transaction can fail terminally, in which
// case the host-side shadow is left untouched, so a failed write is never
// observable.
//
// Peek/Poke touch the shadow without timing (test/debug only), mirroring
// UniPtr.

#ifndef SRC_CORE_COHPTR_H_
#define SRC_CORE_COHPTR_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/mem/coherent.h"

namespace unifab {

template <typename T>
class CohPtr {
  static_assert(std::is_trivially_copyable_v<T>,
                "CohPtr requires trivially copyable payloads (they shadow raw bytes)");

 public:
  CohPtr() = default;

  // Allocates and initializes a T on `window`.
  static CohPtr Make(CoherentWindow* window, const T& init = T{}) {
    CohPtr p;
    p.window_ = window;
    p.addr_ = window->Allocate(sizeof(T));
    std::memcpy(window->Shadow(p.addr_), &init, sizeof(T));
    return p;
  }

  bool valid() const { return window_ != nullptr; }
  std::uint64_t addr() const { return addr_; }
  CoherentWindow* window() const { return window_; }

  // Number of coherence blocks the object spans.
  std::uint32_t blocks() const {
    const std::uint32_t bb = window_->block_bytes();
    return static_cast<std::uint32_t>((sizeof(T) + bb - 1) / bb);
  }

  // Timed read of the whole object through `port`. `cb` receives the value
  // and ok=true on success; on a terminal protocol failure it receives the
  // last committed shadow value and ok=false.
  void Read(CoherentPort* port, std::function<void(const T&, bool)> cb) const {
    assert(valid());
    CoherentWindow* w = window_;
    const std::uint64_t a = addr_;
    const std::uint64_t bb = w->block_bytes();
    const std::uint32_t n = blocks();
    auto cbp = std::make_shared<std::function<void(const T&, bool)>>(std::move(cb));
    auto step = std::make_shared<std::function<void(std::uint32_t)>>();
    auto finish = [w, a, cbp](bool ok) {
      T value;
      std::memcpy(&value, w->Shadow(a), sizeof(T));
      auto done = std::move(*cbp);
      if (done) {
        done(value, ok);
      }
    };
    // `step` refers to itself weakly; the block access in flight holds it, so
    // an access the run ends on is freed with its callback, not leaked.
    *step = [port, a, bb, n, self = std::weak_ptr(step), finish](std::uint32_t i) {
      if (i >= n) {
        finish(true);
        return;
      }
      port->Read(a + i * bb,
                 std::function<void(bool)>([step = self.lock(), finish, i](bool ok) {
                   if (!ok) {
                     finish(false);
                     return;
                   }
                   (*step)(i + 1);
                 }));
    };
    (*step)(0);
  }

  // Timed write of a new value (acquires every covered block exclusively).
  void Write(CoherentPort* port, const T& value, std::function<void(bool)> cb = nullptr) const {
    Store(port, 0, sizeof(T), &value, std::move(cb));
  }

  // Timed partial store of `len` bytes at byte `offset` within the object:
  // only the covered coherence blocks are acquired, so small in-place
  // updates of a large object invalidate a single block at the sharers.
  void Store(CoherentPort* port, std::uint64_t offset, std::uint64_t len, const void* src,
             std::function<void(bool)> cb = nullptr) const {
    assert(valid());
    assert(offset + len <= sizeof(T));
    CoherentWindow* w = window_;
    const std::uint64_t a = addr_;
    const std::uint64_t bb = w->block_bytes();
    const std::uint32_t first = static_cast<std::uint32_t>(offset / bb);
    const std::uint32_t last = static_cast<std::uint32_t>((offset + len - 1) / bb);
    auto bytes = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<const std::uint8_t*>(src), static_cast<const std::uint8_t*>(src) + len);
    auto cbp = std::make_shared<std::function<void(bool)>>(std::move(cb));
    auto step = std::make_shared<std::function<void(std::uint32_t)>>();
    auto finish = [w, a, offset, bytes, cbp](bool ok) {
      if (ok) {
        // Commit the shadow only once every covered block is held in M: a
        // failed write must never become visible.
        std::memcpy(w->Shadow(a + offset), bytes->data(), bytes->size());
      }
      auto done = std::move(*cbp);
      if (done) {
        done(ok);
      }
    };
    // Weak self-reference, as in Read.
    *step = [port, a, bb, last, self = std::weak_ptr(step), finish](std::uint32_t i) {
      if (i > last) {
        finish(true);
        return;
      }
      port->Write(a + i * bb,
                  std::function<void(bool)>([step = self.lock(), finish, i](bool ok) {
                    if (!ok) {
                      finish(false);
                      return;
                    }
                    (*step)(i + 1);
                  }));
    };
    (*step)(first);
  }

  // Timed read-modify-write.
  void Update(CoherentPort* port, std::function<void(T&)> mutate,
              std::function<void(bool)> cb = nullptr) const {
    assert(valid());
    CohPtr self = *this;
    Read(port, [self, port, mutate = std::move(mutate), cb = std::move(cb)](const T& v,
                                                                            bool ok) mutable {
      if (!ok) {
        if (cb) {
          cb(false);
        }
        return;
      }
      T value = v;
      mutate(value);
      self.Write(port, value, std::move(cb));
    });
  }

  // Untimed shadow peek/poke — test/debug only.
  T Peek() const {
    assert(valid());
    T value;
    std::memcpy(&value, window_->Shadow(addr_), sizeof(T));
    return value;
  }
  void Poke(const T& value) const {
    assert(valid());
    std::memcpy(window_->Shadow(addr_), &value, sizeof(T));
  }

 private:
  CoherentWindow* window_ = nullptr;
  std::uint64_t addr_ = 0;
};

}  // namespace unifab

#endif  // SRC_CORE_COHPTR_H_
