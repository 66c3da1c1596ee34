// Discrete-event simulation core: a hierarchical timing wheel.
//
// A single-threaded event loop: events fire in (time, insertion-sequence)
// order, which makes runs bit-for-bit deterministic for a fixed seed
// (invariant SIM-1).  The engine is a Varghese/Lauck hierarchical timing
// wheel sized for million-flow workloads:
//
//   * 8 levels x 64 slots, 1 ns per level-0 tick, covering 2^48 ns
//     (~3.26 simulated days) ahead of the wheel cursor; anything farther
//     out parks on an overflow list and is refiled when the cursor
//     approaches.
//   * schedule / fire / cancel are O(1) amortized: filing an event is a
//     couple of bit operations plus a slot append, firing scans per-level
//     occupancy bitmaps with countr_zero, and cancel just bumps the
//     event's generation -- the slot entry it leaves behind fails the
//     generation check and is dropped at pop time (or compacted by an
//     amortized sweep that keeps stale entries bounded by live ones).
//   * slots are flat vectors of 16-byte (when, index, gen) entries, so a
//     cascade is a contiguous read stream feeding contiguous appends --
//     hardware prefetch instead of a pointer chase through cold nodes.
//   * event state lives in a chunked pool, hot/cold split: a 16-byte Node
//     (generation + lifecycle) next to a separate callback slot with a
//     fixed inline buffer (heap fallback for oversized captures), so the
//     steady state allocates nothing per event and the wheel machinery
//     never touches callback bytes.
//
// SIM-1 ordering on the wheel (proof sketch; restated in DESIGN.md §3f):
// a level-0 slot spans exactly one nanosecond, so every event in it shares
// one timestamp and slot-local FIFO order *is* insertion order.  Events
// reach a level-0 slot either by direct filing (when - cursor < 64) or by
// cascading down from a higher level; a level-l slot is always cascaded in
// bulk -- in entry order, which preserves FIFO -- when the cursor enters
// its time range, i.e. strictly before any direct filing could target the
// level-0 slots inside that range (direct filing at level 0 requires the
// cursor to already be within 64 ns of the event).  Hence cascaded
// predecessors always land in a level-0 slot before same-timestamp
// newcomers, and (time, insertion-sequence) order is exact, matching the
// binary-heap ReferenceSimulator event for event.  Stale entries (from
// cancels) are skipped, and compaction only ever removes entries, so
// neither changes the relative order of live ones.
//
// The original heap engine survives as sim::ReferenceSimulator in
// tests/support/, the differential oracle (invariant SIM-2,
// tests/test_simulator_diff.cpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/time.hpp"

namespace mic::sim {

/// Opaque event handle.  Internally `(pool_index + 1) << 32 | generation`,
/// so 0 is never a valid id (callers use 0 as "no timer armed") and a
/// stale handle -- the event fired or was cancelled, and possibly the node
/// was reused -- fails the generation check and cancels nothing.
using EventId = std::uint64_t;

/// Scheduler health counters, exposed for tests and benchmarks.  In
/// particular `nodes_allocated` is the pool high-water mark: a long-lived
/// simulation that schedules and cancels heartbeat timers forever must not
/// grow it (the old heap engine grew tombstone sets without bound).
struct SchedulerStats {
  std::uint64_t scheduled = 0;       ///< schedule_at/schedule_in calls
  std::uint64_t fired = 0;           ///< callbacks executed
  std::uint64_t cancelled = 0;       ///< live events cancelled
  std::uint64_t cascades = 0;        ///< node re-filings while descending
  std::uint64_t heap_callbacks = 0;  ///< captures too big for the node
  std::uint32_t nodes_allocated = 0; ///< pool high-water mark, in nodes
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule a callback at an absolute time >= now().
  template <typename F>
  EventId schedule_at(SimTime when, F&& cb) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event callbacks take no arguments");
    MIC_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    Node* node = acquire_node();
    if (callback_of(node).emplace(std::forward<F>(cb))) {
      ++stats_.heap_callbacks;
    }
    node->state = kPending;
    file(Entry{when, node->index, node->gen});
    ++live_events_;
    ++stats_.scheduled;
    return (static_cast<EventId>(node->index + 1) << 32) | node->gen;
  }

  /// Schedule a callback `delay` from now.
  template <typename F>
  EventId schedule_in(SimTime delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a pending event in O(1) amortized: the node is recycled
  /// immediately (so schedule/cancel churn cannot grow the pool) and its
  /// generation bumped, which turns the slot entry into a tombstone that
  /// the wheel drops on contact.  Tombstones are bounded: once they
  /// outnumber live events by kSweepSlack, one sweep compacts every slot.
  /// Cancelling an already-fired, already-cancelled, or never-issued id is
  /// a no-op (the generation check rejects stale handles), so a retired id
  /// can neither corrupt an unrelated event that reused the node nor
  /// decrement the live count (which would make idle() report true with
  /// live events pending).
  void cancel(EventId id);

  /// Run until the event queue drains or simulated time exceeds
  /// `deadline`.  Boundary semantics, pinned by Simulator.RunUntil* tests:
  ///   * events with `when == deadline` DO fire;
  ///   * a callback that calls schedule_at(now()) fires the new event in
  ///     the SAME pass (time never advances past an event at `now()`);
  ///   * on return, now() == deadline whenever `deadline != kNever` and
  ///     the clock had not already passed it -- even if no event fired.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline = kNever);

  /// True if no live (non-cancelled) events remain.
  bool idle() const noexcept { return live_events_ == 0; }

  std::uint64_t events_executed() const noexcept { return executed_; }

  const SchedulerStats& stats() const noexcept { return stats_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 64
  static constexpr int kLevels = 8;
  static constexpr int kWheelBits = kLevels * kSlotBits;  // 48
  static constexpr std::size_t kInlineBytes = 32;
  static constexpr std::uint32_t kChunkNodes = 256;
  // Tombstone budget: a stale-entry sweep runs once cancels have left more
  // dead entries behind than live events + this slack, so slot memory is
  // O(live) with O(1) amortized cancel cost.
  static constexpr std::uint64_t kSweepSlack = 4096;

  enum NodeState : std::uint8_t { kFree, kPending, kFiring };

  // Hot/cold split: the wheel shuffles 16-byte slot entries by the
  // million, but a node is touched only at schedule / fire / cancel and a
  // callback exactly twice (construct, invoke+destroy).  Keeping wheel
  // traffic out of node and callback memory is what makes cascades stream.
  struct Node {
    std::uint32_t index = 0;      // position in the pool, fixed at allocation
    std::uint32_t gen = 0;        // bumped on recycle; low half of the EventId
    std::uint32_t free_next = 0;  // freelist link (pool index) while kFree
    std::uint8_t state = kFree;
  };
  static_assert(sizeof(Node) == 16, "the hot/cold split assumes 16-byte nodes");

  /// What actually sits in a wheel slot: the timestamp plus the (index,
  /// gen) pair naming the pool node.  Cancelling bumps the node's gen and
  /// leaves the entry behind as a tombstone; pop_next and sweep_stale drop
  /// entries whose generation no longer matches.
  struct Entry {
    SimTime when;
    std::uint32_t index;
    std::uint32_t gen;
  };

  struct Callback {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];

    void operator()() { invoke(storage); }
    void reset() {
      destroy(storage);
      invoke = nullptr;
      destroy = nullptr;
    }

    /// Constructs the callable into `storage` (heap fallback for captures
    /// larger than kInlineBytes; returns true in that case).
    template <typename F>
    bool emplace(F&& cb) {
      using D = std::decay_t<F>;
      if constexpr (sizeof(D) <= kInlineBytes &&
                    alignof(D) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(storage)) D(std::forward<F>(cb));
        invoke = [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); };
        destroy = [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); };
        return false;
      } else {
        ::new (static_cast<void*>(storage)) D*(new D(std::forward<F>(cb)));
        invoke = [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); };
        destroy = [](void* p) {
          delete *std::launder(reinterpret_cast<D**>(p));
        };
        return true;
      }
    }
  };

  /// A slot is a flat FIFO of entries: `entries[next..]` are still
  /// pending, in insertion order (SIM-1).  `clear()` keeps capacity, so a
  /// steady-state wheel stops allocating.
  struct Slot {
    std::vector<Entry> entries;
    std::size_t next = 0;
  };

  struct Chunk {
    Node nodes[kChunkNodes];
    Callback callbacks[kChunkNodes];
  };

  Node* node_at(std::uint32_t index) const {
    return &chunks_[index / kChunkNodes]->nodes[index % kChunkNodes];
  }
  Callback& callback_at(std::uint32_t index) const {
    return chunks_[index / kChunkNodes]->callbacks[index % kChunkNodes];
  }
  Callback& callback_of(const Node* node) const {
    return callback_at(node->index);
  }

  Node* acquire_node();
  void release_node(Node* node);
  Node* lookup(EventId id) const;
  bool entry_live(const Entry& entry) const {
    const Node* node = node_at(entry.index);
    return node->state == kPending && node->gen == entry.gen;
  }

  void file(const Entry& entry);
  void cascade(int level, int slot);
  void sweep_stale();
  /// Clears every slot and re-anchors cursor_ at now_.  Only legal when
  /// no live events remain (all entries are tombstones): a full drain can
  /// leave the cursor beyond now_ after chasing cancelled far-future
  /// timers, which would misfile later schedule_at(now_ <= when <
  /// cursor_) calls into slots no scan revisits.
  void reset_empty_wheel();
  /// Pops the earliest live event with when <= limit, advancing cursor_
  /// and now_ to its timestamp; returns nullptr (clocks untouched by the
  /// final step) when nothing qualifies.
  Node* pop_next(SimTime limit);

  SimTime now_ = 0;
  // Wheel reference time: cursor_ <= now_ whenever user code runs, and no
  // pending event precedes cursor_.  All slot arithmetic is relative to it.
  SimTime cursor_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t live_events_ = 0;
  SchedulerStats stats_;

  Slot wheel_[kLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kLevels] = {};  // bit s: wheel_[level][s] nonempty
  Slot overflow_;  // events >= cursor_ + 2^48 ns, unordered

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNoFreeNode;  // freelist via Node::free_next
  std::uint64_t stale_entries_ = 0;        // tombstones pending collection

  static constexpr std::uint32_t kNoFreeNode = 0xffffffffu;
};

}  // namespace mic::sim
