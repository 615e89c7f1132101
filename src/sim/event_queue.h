// A deterministic pending-event set for the discrete-event engine.
//
// Events firing at the same tick are delivered in the order they were
// scheduled (FIFO within a tick), which keeps simulations reproducible
// regardless of queue internals.
//
// Layout: a tick-bucketed calendar. Every distinct firing tick owns a bucket
// holding an intrusively linked FIFO of pooled event records; a flat
// open-addressing index maps tick -> bucket and a min-heap of distinct ticks
// orders the buckets. The per-event cost is one pool reuse plus one hash
// probe — heap traffic happens once per distinct tick, not once per event,
// and within-tick delivery is a pointer chase. Callbacks are stored inline
// in the records (EventCallback's buffer is sized for the simulator's
// hot-path lambdas, e.g. flit deliveries capturing a whole Flit), so
// steady-state scheduling performs no heap allocation.
//
// Cancellation is O(1) and eager: the record is unlinked from its bucket and
// recycled immediately instead of lingering until it surfaces, and a
// generation tag embedded in the EventId makes stale handles harmless after
// the record is reused.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace unifab {

// Handle used to cancel a scheduled event. Encodes the pooled record's slot
// plus a generation tag, so cancellation is O(1) and a handle naming an
// already-fired (and possibly reused) record simply reports failure.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// A move-only type-erased `void()` callable with a large inline buffer.
// Sized so the simulator's hottest lambdas (flit deliveries capturing a full
// Flit plus routing context) construct in place instead of on the heap.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 120;

  EventCallback() = default;
  EventCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        !std::is_same_v<D, std::nullptr_t>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  // Constructs a callable into an empty EventCallback in place — the
  // allocation-free path Push uses on recycled records.
  template <typename F, typename D = std::decay_t<F>>
  void Emplace(F&& fn) {
    assert(ops_ == nullptr && "Emplace requires an empty callback");
    // Null std::function / function pointers become empty callbacks: the
    // engine treats them as legal no-ops (completion-less operations).
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(fn)) {
        return;
      }
    }
    if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      heap_ = new D(std::forward<F>(fn));
      ops_ = &kHeapOps<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  // Destroys the held callable (releasing captured resources) and empties.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(Target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(Target()); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(EventCallback* dst, EventCallback* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static void InvokeImpl(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void RelocateInline(EventCallback* dst, EventCallback* src) {
    D* s = std::launder(reinterpret_cast<D*>(src->buf_));
    ::new (static_cast<void*>(dst->buf_)) D(std::move(*s));
    s->~D();
  }
  static void RelocateHeap(EventCallback* dst, EventCallback* src) {
    dst->heap_ = src->heap_;
    src->heap_ = nullptr;
  }
  template <typename D>
  static void DestroyInline(void* p) {
    static_cast<D*>(p)->~D();
  }
  template <typename D>
  static void DestroyHeap(void* p) {
    delete static_cast<D*>(p);
  }

  template <typename D>
  static constexpr Ops kInlineOps{&InvokeImpl<D>, &RelocateInline<D>, &DestroyInline<D>};
  template <typename D>
  static constexpr Ops kHeapOps{&InvokeImpl<D>, &RelocateHeap, &DestroyHeap<D>};

  void MoveFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(this, &other);
      other.ops_ = nullptr;
      other.heap_ = nullptr;
    }
  }

  void* Target() { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  // Pointers lead so empty/inline dispatch touches the same cache line as
  // the enclosing event record's header; the buffer tail is only read by
  // callables large enough to spill past it anyway.
  const Ops* ops_ = nullptr;
  void* heap_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

class EventQueue {
 public:
  EventQueue() : table_(kInitialTable) {}

  // Not copyable: callbacks capture references into the owning simulation.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts an event firing at absolute time `when`.
  template <typename F>
  EventId Push(Tick when, F&& fn) {
    Record* r = AllocRecord();
    r->when = when;
    r->fn.Emplace(std::forward<F>(fn));
    r->in_queue = true;
    Bucket* b = FindOrCreateBucket(when);
    r->prev = b->tail;
    r->next = nullptr;
    if (b->tail != nullptr) {
      b->tail->next = r;
    } else {
      b->head = r;
    }
    b->tail = r;
    ++live_;
    return MakeId(r);
  }

  // Inserts an already type-erased callback without re-wrapping it in a
  // second EventCallback (which would spill to the heap: the wrapper is
  // larger than its own inline buffer). This is the cross-shard mailbox
  // delivery path, where callbacks arrive pre-erased from another shard's
  // outbox.
  EventId PushCallback(Tick when, EventCallback fn) {
    Record* r = AllocRecord();
    r->when = when;
    r->fn = std::move(fn);
    r->in_queue = true;
    Bucket* b = FindOrCreateBucket(when);
    r->prev = b->tail;
    r->next = nullptr;
    if (b->tail != nullptr) {
      b->tail->next = r;
    } else {
      b->head = r;
    }
    b->tail = r;
    ++live_;
    return MakeId(r);
  }

  // Cancels a scheduled event: the record is unlinked from its tick bucket
  // and recycled immediately. Returns false if the id is unknown, already
  // fired, or already cancelled.
  bool Cancel(EventId id) {
    Record* r = Resolve(id);
    if (r == nullptr) {
      return false;
    }
    Bucket* b = FindBucket(r->when);
    assert(b != nullptr && "queued record without a bucket");
    if (r->prev != nullptr) {
      r->prev->next = r->next;
    } else {
      b->head = r->next;
    }
    if (r->next != nullptr) {
      r->next->prev = r->prev;
    } else {
      b->tail = r->prev;
    }
    if (b->head == nullptr) {
      EraseBucket(b);
    }
    FreeRecord(r);
    --live_;
    return true;
  }

  bool Empty() const { return live_ == 0; }
  std::size_t Size() const { return live_; }

  // Time of the earliest live event. Must not be called when Empty().
  Tick NextTime() {
    assert(!Empty());
    return CurrentBucket()->key;
  }

  struct PoppedEvent {
    Tick when;
    EventId id;
    EventCallback fn;
  };

  // Removes and returns the earliest live event. Must not be called when
  // Empty().
  PoppedEvent Pop() {
    assert(!Empty());
    Bucket* b = CurrentBucket();
    Record* r = b->head;
    b->head = r->next;
    if (b->head != nullptr) {
      b->head->prev = nullptr;
    } else {
      b->tail = nullptr;
      // CurrentBucket guarantees b->key == ticks_.top(); retire the heap
      // entry with the drained bucket so it never resurfaces stale.
      ticks_.pop();
      EraseBucket(b);
    }
    PoppedEvent out{b->key, MakeId(r), std::move(r->fn)};
    FreeRecord(r);
    --live_;
    return out;
  }

  // Pool introspection (tests assert that cancellation reclaims eagerly):
  // records ever allocated and records currently on the free list. The
  // invariant AllocatedRecords() - FreeRecords() == Size() holds whenever
  // the queue is at rest.
  std::size_t AllocatedRecords() const { return record_count_; }
  std::size_t FreeRecords() const { return free_count_; }

 private:
  friend class AuditTestPeer;  // seeded-corruption hook for audit tests

  static constexpr std::size_t kChunkShift = 7;  // 128 records per pool chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kInitialTable = 64;  // power of two

  struct Record {
    Tick when = 0;
    std::uint32_t gen = 1;
    std::uint32_t slot = 0;
    Record* prev = nullptr;
    Record* next = nullptr;
    bool in_queue = false;
    EventCallback fn;
  };

  enum : std::uint8_t { kSlotEmpty = 0, kSlotUsed = 1, kSlotTomb = 2 };

  struct Bucket {
    Tick key = 0;
    Record* head = nullptr;
    Record* tail = nullptr;
    std::uint8_t state = kSlotEmpty;
  };

  static EventId MakeId(const Record* r) {
    return (static_cast<EventId>(r->slot) + 1) << 32 | r->gen;
  }

  Record* RecordAt(std::size_t slot) {
    return &chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  Record* Resolve(EventId id) {
    const std::uint64_t hi = id >> 32;
    if (hi == 0 || hi > record_count_) {
      return nullptr;
    }
    Record* r = RecordAt(static_cast<std::size_t>(hi - 1));
    if (!r->in_queue || r->gen != static_cast<std::uint32_t>(id)) {
      return nullptr;
    }
    return r;
  }

  // Removes a drained bucket from the index. A tombstone is only required
  // when the next probe slot is occupied (a later probe chain may pass
  // through here); otherwise the slot reverts to empty and any contiguous
  // run of tombstones ending at it is cleaned up too. This keeps workloads
  // that touch each tick once (the common monotone-time pattern) entirely
  // tombstone-free, so the table never needs churn-driven rebuilds.
  void EraseBucket(Bucket* b) {
    b->head = nullptr;
    b->tail = nullptr;
    --table_used_;
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(b - table_.data());
    if (table_[(i + 1) & mask].state != kSlotEmpty) {
      b->state = kSlotTomb;
      ++table_tombs_;
      return;
    }
    b->state = kSlotEmpty;
    std::size_t j = (i + mask) & mask;
    while (table_tombs_ > 0 && table_[j].state == kSlotTomb) {
      table_[j].state = kSlotEmpty;
      --table_tombs_;
      j = (j + mask) & mask;
    }
  }

  Record* AllocRecord() {
    if (free_ == nullptr) {
      GrowPool();
    }
    Record* r = free_;
    free_ = r->next;
    --free_count_;
    r->prev = nullptr;
    r->next = nullptr;
    return r;
  }

  void FreeRecord(Record* r) {
    r->fn.Reset();
    r->in_queue = false;
    ++r->gen;  // stale EventIds naming this record stop resolving
    r->prev = nullptr;
    r->next = free_;
    free_ = r;
    ++free_count_;
  }

  void GrowPool() {
    auto chunk = std::make_unique<Record[]>(kChunkSize);
    const std::size_t base = record_count_;
    for (std::size_t i = kChunkSize; i-- > 0;) {
      Record& r = chunk[i];
      r.slot = static_cast<std::uint32_t>(base + i);
      r.next = free_;
      free_ = &r;
    }
    chunks_.push_back(std::move(chunk));
    record_count_ += kChunkSize;
    free_count_ += kChunkSize;
  }

  static std::size_t HashTick(Tick t) {
    std::uint64_t x = t + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  Bucket* FindBucket(Tick when) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = HashTick(when) & mask;
    for (;;) {
      Bucket& b = table_[i];
      if (b.state == kSlotEmpty) {
        return nullptr;
      }
      if (b.state == kSlotUsed && b.key == when) {
        return &b;
      }
      i = (i + 1) & mask;
    }
  }

  Bucket* FindOrCreateBucket(Tick when) {
    if ((table_used_ + table_tombs_ + 1) * 2 > table_.size()) {
      Rehash();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = HashTick(when) & mask;
    std::size_t first_tomb = table_.size();
    for (;;) {
      Bucket& b = table_[i];
      if (b.state == kSlotUsed && b.key == when) {
        hot_idx_ = i;
        return &b;
      }
      if (b.state == kSlotTomb && first_tomb == table_.size()) {
        first_tomb = i;
      }
      if (b.state == kSlotEmpty) {
        const std::size_t slot = first_tomb != table_.size() ? first_tomb : i;
        Bucket& nb = table_[slot];
        if (nb.state == kSlotTomb) {
          --table_tombs_;
        }
        nb.state = kSlotUsed;
        nb.key = when;
        nb.head = nullptr;
        nb.tail = nullptr;
        ++table_used_;
        hot_idx_ = slot;
        ticks_.push(when);
        return &nb;
      }
      i = (i + 1) & mask;
    }
  }

  void Rehash() {
    // Grow when genuinely full; recycle tombstones in place otherwise.
    std::size_t new_size = table_.size();
    if ((table_used_ + 1) * 4 > table_.size()) {
      new_size *= 2;
    }
    std::vector<Bucket> fresh(new_size);
    const std::size_t mask = new_size - 1;
    for (const Bucket& b : table_) {
      if (b.state != kSlotUsed) {
        continue;
      }
      std::size_t i = HashTick(b.key) & mask;
      while (fresh[i].state == kSlotUsed) {
        i = (i + 1) & mask;
      }
      fresh[i] = b;
    }
    table_.swap(fresh);
    table_tombs_ = 0;
  }

  // Earliest bucket that still holds live events; discards heap entries
  // whose bucket has been drained or cancelled away (duplicates from
  // cancel-then-reschedule churn are dropped the same way). `hot_idx_` is a
  // self-validating cache of the last bucket touched: bucket keys are
  // unique, so if the cached slot is in use with the right key it IS the
  // right bucket, even across rehashes — no invalidation protocol needed.
  Bucket* CurrentBucket() {
    for (;;) {
      assert(!ticks_.empty());
      const Tick t = ticks_.top();
      Bucket& hot = table_[hot_idx_];
      if (hot.state == kSlotUsed && hot.key == t) {
        return &hot;
      }
      Bucket* b = FindBucket(t);
      if (b != nullptr) {
        hot_idx_ = static_cast<std::size_t>(b - table_.data());
        return b;
      }
      ticks_.pop();
    }
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;  // stable pooled storage
  Record* free_ = nullptr;                         // free list threaded via next
  std::size_t record_count_ = 0;
  std::size_t free_count_ = 0;
  std::vector<Bucket> table_;  // open-addressing tick -> bucket index
  std::size_t hot_idx_ = 0;    // last bucket touched (see CurrentBucket)
  std::size_t table_used_ = 0;
  std::size_t table_tombs_ = 0;
  std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>> ticks_;
  std::size_t live_ = 0;
};

}  // namespace unifab

#endif  // SRC_SIM_EVENT_QUEUE_H_
