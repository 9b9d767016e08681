// Hierarchical timing wheel: the near-future half of the event queue.
//
// The credit-pacing hot path schedules almost exclusively a few hundred
// nanoseconds to a few microseconds ahead (credit gaps, serializer kicks,
// shaper token waits, per-hop deliveries). A comparison heap pays O(log n)
// sifts for that traffic; a timing wheel pays O(1) bucket pushes and
// amortized-O(1) cursor advances. This wheel covers the near future only —
// the owning EventQueue keeps its 4-ary heap as the sparse far-future
// overflow (RTOs, watchdogs, scenario fault plans) and merges the two
// streams by (time, sequence), so global FIFO determinism is preserved
// bit-for-bit regardless of which side an event lands on.
//
// Layout: 3 levels x 256 slots. Level 0 buckets are 2^13 ps (8.192 ns) wide
// — finer than a minimum-frame serialization time at 100G, so hot events
// rarely share a bucket. Spans: L0 ~2.1 us, L1 ~537 us, L2 ~137 ms; beyond
// that try_schedule() refuses and the caller heaps the event. Entries are
// placed by the absolute bits of their tick (tick = picos >> 13): slot
// index at level L is (tick >> 8L) & 255. An entry bound for the *next*
// window of its level lands behind the cursor, which is safe: the cursor
// only scans forward of itself, and crossing a window boundary cascades the
// next upper-level slot before rescanning.
//
// Draining: the cursor jumps (via per-level occupancy bitmaps) to the next
// non-empty L0 slot, unlinks its chain, and sorts the entries by (t, key)
// into a `ready_` run consumed through a cursor. A schedule() that lands at
// or before the drained boundary — possible when a heap-side event fires
// earlier and schedules into an already-drained bucket — is merge-inserted
// into the unconsumed tail of the run, which keeps the pop order exact
// without ever rewinding the wheel.
//
// Nodes live in a recycled pool with an intrusive freelist; steady-state
// operation allocates nothing. Each bucket is a doubly linked list: a node
// records its bucket (level * 256 + slot) and both neighbours, so remove()
// unlinks any bucketed entry in O(1) — the head, the middle or the tail —
// clears the bucket's occupancy bit when it empties, and frees the node at
// once. This is what lets EventQueue::cancel() give back a timer that sits
// in a bucket (an RTO re-armed on every ACK) instead of carrying it until its
// old deadline comes round. An entry already drained into the ready run has
// left its node (which may since hold another entry) and cannot be removed;
// the owning queue skips it when it surfaces.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace xpass::sim {

class TimingWheel {
 public:
  TimingWheel();

  struct Entry {
    Time t;
    uint64_t key;  // EventQueue's packed (seq << kSlotBits) | slot
  };

  static constexpr uint32_t kTickBits = 13;  // 8.192 ns buckets
  static constexpr uint32_t kLevelBits = 8;  // 256 slots per level
  static constexpr uint32_t kLevels = 3;
  static constexpr uint32_t kSlots = 1u << kLevelBits;
  // Ticks covered before overflow: 2^24 ticks = ~137 ms.
  static constexpr uint64_t kSpanTicks = 1ull << (kLevels * kLevelBits);

  // Accepts `t` if it lies within the wheel's span of the drain cursor;
  // returns false for far-future events (the caller's heap handles those).
  // `t` may be at or before the drained boundary (see file comment); it
  // must not be before the owning queue's now().
  // When `node` is given, it receives the bucket node now holding the entry,
  // or kNoNode if the entry went straight into the ready run.
  bool try_schedule(Time t, uint64_t key, uint32_t* node = nullptr);

  static constexpr uint32_t kNoNode = 0xffffffffu;
  // Key of the entry linked at `node`, or nullopt if the node is free: its
  // entry was drained into the ready run or removed. Free nodes are
  // recycled, so a handle kept past a drain may name a later entry; callers
  // match the key before they remove().
  std::optional<uint64_t> linked_key(uint32_t node) const {
    if (node >= nodes_.size() || nodes_[node].bucket == kNoNode) {
      return std::nullopt;
    }
    return nodes_[node].key;
  }
  // Unlinks the entry at a linked `node` from its bucket and frees the node,
  // in O(1). The entry never comes out of peek().
  void remove(uint32_t node);

  // Earliest pending entry, or nullptr if the wheel is empty. Advances the
  // cursor and drains buckets as needed (mutating, amortized O(1)).
  const Entry* peek();
  // Removes the entry peek() just returned. Only valid after a non-null
  // peek() with no intervening try_schedule.
  Entry pop();

  // Fast-forwards an *empty* wheel's cursor to `now`, re-anchoring the span
  // window after a stretch of purely heap-side activity.
  void sync(Time now);

  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  // Introspection for tests and benchmarks.
  uint64_t accepted() const { return accepted_; }
  size_t node_pool_size() const { return nodes_.size(); }
  // Buckets whose occupancy bit is set, over all levels.
  size_t occupied_buckets() const;

 private:
  struct Node {
    Time t;
    uint64_t key;
    uint32_t next;    // towards the bucket's tail; freelist link when free
    uint32_t prev;    // towards the bucket's head; kNil at the head
    uint32_t bucket;  // level * kSlots + slot; kNoNode while free
  };
  static constexpr uint32_t kNil = kNoNode;
  static constexpr uint32_t kSlotMask = kSlots - 1;
  static constexpr size_t kWords = kSlots / 64;

  static bool entry_earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.key < b.key;
  }
  static uint64_t tick_of(Time t) {
    return static_cast<uint64_t>(t.picos()) >> kTickBits;
  }

  uint32_t acquire_node(Time t, uint64_t key);
  void free_node(uint32_t node);
  void link(uint32_t level, uint32_t slot, uint32_t node);
  // Re-buckets every node of an upper-level slot after a window crossing.
  void cascade(uint32_t level, uint32_t slot);
  // Places a node by its tick relative to cur_tick_ (never "late": cascade
  // and insert call this only with tick >= cur_tick_).
  void place(uint32_t node);
  // Moves the cursor to the next occupied L0 bucket and drains it into
  // ready_. Returns false if no bucketed entries remain.
  bool advance_and_drain();
  // First occupied slot index >= from at `level`, or -1.
  int find_occupied(uint32_t level, uint32_t from) const;

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNil;
  uint32_t heads_[kLevels][kSlots];
  uint64_t bitmap_[kLevels][kWords];

  // All ticks < cur_tick_ are drained; bucketed entries sit at >= cur_tick_.
  uint64_t cur_tick_ = 0;
  // Window bases (in ticks) whose upper-level cascades have been applied.
  uint64_t l0_window_ = 0;
  uint64_t l1_window_ = 0;

  // Sorted run of drained (and late-inserted) entries; consumed via cursor.
  std::vector<Entry> ready_;
  size_t ready_pos_ = 0;

  size_t pending_ = 0;    // ready tail + bucketed
  size_t bucketed_ = 0;   // entries currently linked in slots
  uint64_t accepted_ = 0;
};

}  // namespace xpass::sim
