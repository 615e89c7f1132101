// A deterministic pending-event set for the discrete-event engine.
//
// Events firing at the same tick are delivered in the order they were
// scheduled (FIFO within a tick), which keeps simulations reproducible
// regardless of queue internals.
//
// Layout: a 4-ary min-heap of same-tick *runs*. A run is an intrusively
// linked FIFO of pooled event records sharing one firing tick, keyed in the
// heap by (tick, run creation order). A push joins the newest run of its
// tick, found through a small direct-mapped table of recent ticks, or opens
// a new run; a tick's older runs only hold earlier pushes, so the heap's
// key order is exactly (tick, push order). Callbacks are stored inline in
// the records (EventCallback's buffer is sized for the simulator's hot-path
// lambdas, e.g. flit deliveries capturing a whole Flit), so steady-state
// scheduling performs no heap allocation.
//
// Cancellation is O(1) and eager: the record is unlinked from its run and
// recycled immediately, and a generation tag embedded in the EventId makes
// stale handles harmless after the record is reused. A run emptied by
// cancels leaves a stale heap entry that Pop skips; the heap is compacted
// once stale entries outnumber live ones by more than kCompactSlack, so
// far-future timeouts scheduled and cancelled by the thousand never pile
// up in it.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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
  EventQueue() : runs_(1) {}

  // Not copyable: callbacks capture references into the owning simulation.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts an event firing at absolute time `when`.
  template <typename F>
  EventId Push(Tick when, F&& fn) {
    Record* r = AllocRecord();
    r->fn.Emplace(std::forward<F>(fn));
    return Enqueue(when, r);
  }

  // Inserts an already type-erased callback without re-wrapping it in a
  // second EventCallback (which would spill to the heap: the wrapper is
  // larger than its own inline buffer). This is the cross-shard mailbox
  // delivery path, where callbacks arrive pre-erased from another shard's
  // outbox.
  EventId PushCallback(Tick when, EventCallback&& fn) {
    Record* r = AllocRecord();
    r->fn = std::move(fn);
    return Enqueue(when, r);
  }

  // Cancels a scheduled event: the record is unlinked from its run and
  // recycled immediately. Returns false if the id is unknown, already
  // fired, or already cancelled.
  bool Cancel(EventId id) {
    Record* r = Resolve(id);
    if (r == nullptr) {
      return false;
    }
    Run& run = runs_[r->run];
    if (r->prev != nullptr) {
      r->prev->next = r->next;
    } else {
      run.head = r->next;
    }
    if (r->next != nullptr) {
      r->next->prev = r->prev;
    } else {
      run.tail = r->prev;
    }
    if (run.head == nullptr) {
      CloseRun(r->run);  // its heap entry is now stale; Pop skips it
      ++stale_;
      CompactIfMostlyStale();
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
    DropStaleTop();
    return heap_[0].when;
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
    DropStaleTop();
    const std::uint32_t idx = heap_[0].run;
    Run& run = runs_[idx];
    const Tick when = run.when;
    Record* r = run.head;
    run.head = r->next;
    if (run.head != nullptr) {
      run.head->prev = nullptr;
    } else {
      CloseRun(idx);
      HeapPopTop();
      CompactIfMostlyStale();
    }
    PoppedEvent out{when, MakeId(r), std::move(r->fn)};
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

  // Run-heap entries, live and stale. Compaction keeps this at most
  // 2 * Size() + kCompactSlack however many events are cancelled.
  std::size_t HeapEntries() const { return heap_.size(); }

  static constexpr std::size_t kCompactSlack = 64;

 private:
  friend class AuditTestPeer;  // seeded-corruption hook for audit tests

  static constexpr std::size_t kChunkShift = 7;  // 128 records per pool chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr unsigned kRecentBits = 8;  // recent-tick hint table size
  static constexpr std::size_t kRecentSize = std::size_t{1} << kRecentBits;

  struct Record {
    std::uint32_t gen = 1;
    std::uint32_t slot = 0;
    std::uint32_t run = 0;  // index into runs_ while queued
    bool in_queue = false;
    Record* prev = nullptr;
    Record* next = nullptr;
    EventCallback fn;
  };

  // A FIFO of records sharing one firing tick. `seq` is the run's creation
  // order (its heap tie-break and incarnation tag); 0 marks a closed run.
  struct Run {
    Tick when = 0;
    std::uint64_t seq = 0;
    Record* head = nullptr;
    Record* tail = nullptr;
  };

  struct HeapEntry {
    Tick when;
    std::uint64_t seq;
    std::uint32_t run;
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

  // Appends `r` to the newest run of its tick, opening a run when the hint
  // table does not name one. The hint needs no tag of its own: every run
  // for tick t is opened through t's slot, so a slot naming an open run
  // whose tick is t names t's newest run. A miss (slot overwritten by a
  // colliding tick) only opens a newer run; the older one keeps its earlier
  // pushes, so (tick, run seq, position) is still (tick, push order).
  EventId Enqueue(Tick when, Record* r) {
    std::uint32_t& hint =
        recent_[static_cast<std::size_t>((when * 0x9E3779B97F4A7C15ULL) >> (64 - kRecentBits))];
    if (runs_[hint].seq == 0 || runs_[hint].when != when) {
      hint = OpenRun(when);
    }
    Run& run = runs_[hint];
    r->run = hint;
    r->in_queue = true;
    r->prev = run.tail;
    if (run.tail != nullptr) {
      run.tail->next = r;
    } else {
      run.head = r;
    }
    run.tail = r;
    ++live_;
    return MakeId(r);
  }

  std::uint32_t OpenRun(Tick when) {
    std::uint32_t idx;
    if (!free_runs_.empty()) {
      idx = free_runs_.back();
      free_runs_.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(runs_.size());
      runs_.emplace_back();
    }
    Run& run = runs_[idx];
    run.when = when;
    run.seq = ++run_seq_;
    HeapPush(HeapEntry{when, run.seq, idx});
    return idx;
  }

  void CloseRun(std::uint32_t idx) {
    Run& run = runs_[idx];
    run.seq = 0;
    run.head = nullptr;
    run.tail = nullptr;
    free_runs_.push_back(idx);
  }

  bool IsStale(const HeapEntry& e) const { return runs_[e.run].seq != e.seq; }

  void DropStaleTop() {
    while (IsStale(heap_[0])) {
      HeapPopTop();
      --stale_;
    }
  }

  // Rebuilds the heap without its stale entries once they outnumber the
  // live ones (plus a slack that keeps small queues from compacting on
  // every cancel). Amortized O(1): reaching the threshold again takes as
  // many cancels and pops as the rebuilt heap holds entries.
  void CompactIfMostlyStale() {
    if (stale_ <= heap_.size() - stale_ + kCompactSlack) {
      return;
    }
    std::size_t n = 0;
    for (const HeapEntry& e : heap_) {
      if (!IsStale(e)) {
        heap_[n++] = e;
      }
    }
    heap_.resize(n);
    stale_ = 0;
    for (std::size_t i = n > 1 ? (n - 2) / 4 + 1 : 0; i-- > 0;) {
      SiftDown(i, heap_[i]);
    }
  }

  // 4-ary min-heap on (when, seq). Keys are unique, so the pop order never
  // depends on the heap's shape or history.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  void HeapPush(const HeapEntry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!Before(e, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void HeapPopTop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(0, last);
    }
  }

  // Places `e` at or below position i.
  void SiftDown(std::size_t i, const HeapEntry e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], e)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;  // stable pooled storage
  Record* free_ = nullptr;                         // free list threaded via next
  std::size_t record_count_ = 0;
  std::size_t free_count_ = 0;
  std::vector<Run> runs_;  // runs_[0] stays closed: the hints' initial target
  std::vector<std::uint32_t> free_runs_;
  std::uint64_t run_seq_ = 0;
  std::array<std::uint32_t, kRecentSize> recent_{};  // tick hash -> newest run
  std::vector<HeapEntry> heap_;
  std::size_t stale_ = 0;  // heap entries naming closed or reopened runs
  std::size_t live_ = 0;
};

}  // namespace unifab

#endif  // SRC_SIM_EVENT_QUEUE_H_
