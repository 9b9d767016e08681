#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace {

using xpass::sim::EventQueue;
using xpass::sim::Time;
using xpass::sim::TimerId;
using xpass::sim::TimingWheel;

TEST(TimingWheel, EmptyPeeksNull) {
  TimingWheel w;
  EXPECT_EQ(w.peek(), nullptr);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimingWheel, PopsInTimeThenKeyOrder) {
  TimingWheel w;
  // Same 8.192ns bucket (ticks of t=100..103ps are all 0), distinct times
  // and keys; insertion order deliberately scrambled.
  ASSERT_TRUE(w.try_schedule(Time::ps(103), 3));
  ASSERT_TRUE(w.try_schedule(Time::ps(100), 1));
  ASSERT_TRUE(w.try_schedule(Time::ps(100), 0));
  ASSERT_TRUE(w.try_schedule(Time::ps(101), 2));
  std::vector<uint64_t> keys;
  while (const TimingWheel::Entry* e = w.peek()) {
    keys.push_back(e->key);
    w.pop();
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(TimingWheel, SpansAllThreeLevelsAndRefusesBeyond) {
  TimingWheel w;
  EXPECT_TRUE(w.try_schedule(Time::ns(10), 0));    // L0
  EXPECT_TRUE(w.try_schedule(Time::us(100), 1));   // L1
  EXPECT_TRUE(w.try_schedule(Time::ms(100), 2));   // L2
  EXPECT_FALSE(w.try_schedule(Time::ms(200), 3));  // beyond ~137 ms span
  std::vector<uint64_t> keys;
  while (const TimingWheel::Entry* e = w.peek()) {
    keys.push_back(e->key);
    w.pop();
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(TimingWheel, LateInsertMergesIntoReadyRun) {
  TimingWheel w;
  // Drain a bucket at ~1us, then insert an entry whose bucket is already
  // behind the cursor but whose time is after the consumed head: it must
  // pop in exact (t, key) position.
  ASSERT_TRUE(w.try_schedule(Time::ns(1000), 1));
  ASSERT_TRUE(w.try_schedule(Time::ns(1001), 3));
  const TimingWheel::Entry* e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 1u);
  w.pop();  // consumed: now() conceptually at 1000ns
  // Bucket for 1000.5ns is drained; key 2 sorts between the consumed 1
  // and the pending 3.
  ASSERT_TRUE(w.try_schedule(Time::ps(1000500), 2));
  e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 2u);
  w.pop();
  e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 3u);
  w.pop();
  EXPECT_EQ(w.peek(), nullptr);
}

TEST(TimingWheel, SyncReanchorsEmptyWheel) {
  TimingWheel w;
  // A fresh wheel anchored at 0 refuses t = 1 s (far beyond span)...
  EXPECT_FALSE(w.try_schedule(Time::sec(1), 1));
  // ...but after syncing to 1 s, near-future times are accepted again.
  w.sync(Time::sec(1));
  EXPECT_TRUE(w.try_schedule(Time::sec(1) + Time::us(5), 1));
  const TimingWheel::Entry* e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->t, Time::sec(1) + Time::us(5));
}

TEST(TimingWheel, SteadyStateRecyclesNodes) {
  // Schedule/drain in a rolling window: the node pool must stop growing
  // once it covers the high-water mark of concurrently pending entries.
  TimingWheel w;
  uint64_t key = 0;
  Time t;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(w.try_schedule(t + Time::ns(100 * (i + 1)), key++));
  }
  const size_t pool_after_warmup = w.node_pool_size();
  for (int round = 0; round < 10000; ++round) {
    const TimingWheel::Entry* e = w.peek();
    ASSERT_NE(e, nullptr);
    t = e->t;
    w.pop();
    ASSERT_TRUE(w.try_schedule(t + Time::us(7), key++));
  }
  EXPECT_EQ(w.node_pool_size(), pool_after_warmup);
}

// Pops everything left in the wheel, returning the keys in pop order.
std::vector<uint64_t> drain_keys(TimingWheel& w) {
  std::vector<uint64_t> keys;
  while (const TimingWheel::Entry* e = w.peek()) {
    keys.push_back(e->key);
    w.pop();
  }
  return keys;
}

// remove() unlinks the head, a middle node and the tail of one bucket at
// each level; the removed entries never come out, the rest keep (t, key)
// order through the cascades down to L0.
TEST(TimingWheel, RemovesHeadMiddleAndTailAtEveryLevel) {
  for (const Time base : {Time::ns(100), Time::us(100), Time::ms(100)}) {
    TimingWheel w;
    std::vector<uint32_t> nodes(5);
    // One bucket (all five share a tick); linking pushes at the head, so
    // key 4 is the head, key 2 the middle and key 0 the tail.
    for (uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(w.try_schedule(base + Time::ps(static_cast<int64_t>(k)), k,
                                 &nodes[k]));
      ASSERT_NE(nodes[k], TimingWheel::kNoNode);
      EXPECT_EQ(w.linked_key(nodes[k]).value_or(~0ull), k);
    }
    EXPECT_EQ(w.occupied_buckets(), 1u);
    for (const uint64_t k : {4, 2, 0}) w.remove(nodes[k]);
    for (const uint64_t k : {4, 2, 0}) {
      EXPECT_FALSE(w.linked_key(nodes[k]).has_value());
    }
    EXPECT_EQ(w.pending(), 2u);
    EXPECT_EQ(w.occupied_buckets(), 1u);
    EXPECT_EQ(drain_keys(w), (std::vector<uint64_t>{1, 3}))
        << "base " << base.picos() << " ps";
  }
}

TEST(TimingWheel, RemovingTheLastEntryClearsTheOccupancyBit) {
  for (const Time base : {Time::ns(100), Time::us(100), Time::ms(100)}) {
    TimingWheel w;
    uint32_t a = TimingWheel::kNoNode;
    uint32_t b = TimingWheel::kNoNode;
    ASSERT_TRUE(w.try_schedule(base, 1, &a));
    ASSERT_TRUE(w.try_schedule(base + Time::ps(1), 2, &b));
    w.remove(a);
    EXPECT_EQ(w.occupied_buckets(), 1u);
    w.remove(b);
    EXPECT_EQ(w.occupied_buckets(), 0u);
    EXPECT_TRUE(w.empty());
    // A stale bit would make the cursor "drain" the empty bucket ahead of
    // this later entry.
    ASSERT_TRUE(w.try_schedule(base + Time::us(1), 3));
    EXPECT_EQ(drain_keys(w), (std::vector<uint64_t>{3}));
    EXPECT_EQ(w.occupied_buckets(), 0u);
  }
}

// A node handle outlives its entry's stay in the bucket: once drained into
// the ready run the node is free, and once reused it names the later entry.
TEST(TimingWheel, LinkedKeyForgetsDrainedNodes) {
  TimingWheel w;
  uint32_t a = TimingWheel::kNoNode;
  uint32_t b = TimingWheel::kNoNode;
  ASSERT_TRUE(w.try_schedule(Time::ns(10), 1, &a));
  ASSERT_TRUE(w.try_schedule(Time::ns(10) + Time::ps(1), 2, &b));
  ASSERT_NE(w.peek(), nullptr);  // drains the bucket into the ready run
  EXPECT_FALSE(w.linked_key(a).has_value());
  EXPECT_FALSE(w.linked_key(b).has_value());
  EXPECT_EQ(w.pending(), 2u);
  uint32_t c = TimingWheel::kNoNode;
  ASSERT_TRUE(w.try_schedule(Time::us(5), 3, &c));
  EXPECT_TRUE(c == a || c == b);  // recycled
  EXPECT_EQ(w.linked_key(c).value_or(~0ull), 3u);
  // Scheduling into the drained bucket merges into the ready run: no node.
  uint32_t late = 0;
  ASSERT_TRUE(w.try_schedule(Time::ns(10) + Time::ps(2), 4, &late));
  EXPECT_EQ(late, TimingWheel::kNoNode);
  EXPECT_EQ(drain_keys(w), (std::vector<uint64_t>{1, 2, 4, 3}));
}

// Randomized: entries across all three levels, a third removed before any
// drain and more removed between drains; the survivors must pop in exact
// (t, key) order however the cascades re-bucket them.
TEST(TimingWheel, CascadesAfterRemovalsKeepTimeKeyOrder) {
  TimingWheel w;
  uint64_t s = 0x5851f42d4c957f2dULL;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  struct Item {
    TimingWheel::Entry e;
    uint32_t node;
    bool removed;
  };
  std::vector<Item> items;
  for (uint64_t k = 0; k < 3000; ++k) {
    // Coarse times so many entries share buckets at every level.
    const Time t = Time::ns(static_cast<int64_t>(next() % 130'000) * 1000 +
                            static_cast<int64_t>(next() % 4) * 3);
    uint32_t node = TimingWheel::kNoNode;
    ASSERT_TRUE(w.try_schedule(t, k, &node));
    items.push_back({{t, k}, node, false});
  }
  for (Item& it : items) {
    if (next() % 3 == 0) {
      w.remove(it.node);
      it.removed = true;
    }
  }
  std::vector<TimingWheel::Entry> expect;
  for (const Item& it : items) {
    if (!it.removed) expect.push_back(it.e);
  }
  std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
    return a.t != b.t ? a.t < b.t : a.key < b.key;
  });
  std::vector<TimingWheel::Entry> got;
  while (const TimingWheel::Entry* e = w.peek()) {
    got.push_back(*e);
    w.pop();
    // Between drains, remove a few still-bucketed entries further out.
    if (got.size() % 16 == 0) {
      for (int r = 0; r < 4; ++r) {
        Item& it = items[next() % items.size()];
        if (it.removed || w.linked_key(it.node) != it.e.key) continue;
        w.remove(it.node);
        it.removed = true;
        expect.erase(std::find_if(expect.begin(), expect.end(),
                                  [&](const auto& x) {
                                    return x.key == it.e.key;
                                  }));
      }
    }
  }
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, expect[i].key) << "at " << i;
  }
  EXPECT_EQ(w.occupied_buckets(), 0u);
  EXPECT_TRUE(w.empty());
}

// Differential check: a hybrid (wheel + heap) EventQueue and a heap-only
// one must fire an identical randomized workload in the identical order —
// including cancellations, same-time FIFO ties, reschedules from inside
// callbacks, and far-future overflow events.
TEST(TimingWheel, HybridMatchesHeapOnlyOnRandomizedWorkload) {
  auto run = [](EventQueue::Backend backend) {
    EventQueue q(backend);
    std::vector<std::pair<int64_t, int>> fired;
    uint64_t s = 0x2545f4914f6cdd1dULL;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    std::vector<TimerId> ids;
    int n = 0;
    // Self-perpetuating workload: each event schedules 0-2 successors at
    // horizons from sub-tick to beyond the wheel span.
    std::function<void(int)> plant = [&](int id) {
      fired.emplace_back(q.now().picos(), id);
      if (fired.size() > 4000) return;
      const int kids = static_cast<int>(next() % 3);
      for (int k = 0; k < kids; ++k) {
        const uint64_t r = next() % 100;
        Time dt;
        if (r < 40) {
          dt = Time::ps(static_cast<int64_t>(next() % 20000));  // sub-bucket
        } else if (r < 70) {
          dt = Time::ns(static_cast<int64_t>(next() % 5000));
        } else if (r < 90) {
          dt = Time::us(static_cast<int64_t>(next() % 2000));
        } else {
          // Straddles / exceeds the wheel span: heap overflow territory.
          dt = Time::ms(static_cast<int64_t>(next() % 300));
        }
        const int child = ++n;
        ids.push_back(q.schedule(q.now() + dt, [&, child] { plant(child); }));
        // Occasionally cancel a random previously issued timer.
        if (next() % 8 == 0 && !ids.empty()) {
          q.cancel(ids[next() % ids.size()]);
        }
      }
    };
    for (int i = 0; i < 16; ++i) {
      const int seed_id = ++n;
      ids.push_back(q.schedule(Time::ns(static_cast<int64_t>(next() % 1000)),
                               [&, seed_id] { plant(seed_id); }));
    }
    q.run();
    return fired;
  };
  const auto hybrid = run(EventQueue::Backend::kHybrid);
  const auto heap = run(EventQueue::Backend::kHeapOnly);
  ASSERT_GT(hybrid.size(), 1000u);
  EXPECT_EQ(hybrid, heap);
}

// Differential check of the ways a hybrid queue frees a cancelled entry —
// unlinked from its bucket at cancel time (whether scheduled in the same
// step or an earlier one), skipped as the ready run reaches it, or skimmed
// at the heap top — against the heap-only backend, where every cancel is
// lazy. Horizons cover L0, L1, L2 and the heap, plus instants on L0/L1
// window boundaries, so cancels land on both sides of cascades.
TEST(TimingWheel, EagerCancelMatchesHeapOnlyAcrossLevels) {
  struct CancelKinds {
    int same_step = 0;    // cancelled by the callback that scheduled it
    int same_bucket = 0;  // due in the current 8 ns bucket (ready run)
    int later = 0;        // bucketed further out (or heaped)
  };
  auto run = [](EventQueue::Backend backend, CancelKinds* kinds) {
    EventQueue q(backend);
    std::vector<std::pair<int64_t, int>> fired;
    uint64_t s = 0x9e3779b97f4a7c15ULL;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    constexpr int64_t kTickPs = int64_t{1} << TimingWheel::kTickBits;
    auto horizon = [&]() -> Time {
      const uint64_t r = next() % 100;
      if (r < 30) return Time::ps(static_cast<int64_t>(next() % kTickPs));
      if (r < 45) return Time::ns(static_cast<int64_t>(next() % 2000));
      if (r < 65) return Time::us(static_cast<int64_t>(next() % 500));
      if (r < 80) return Time::ms(1 + static_cast<int64_t>(next() % 130));
      if (r < 90) return Time::ms(140 + static_cast<int64_t>(next() % 200));
      // A coming L0 or L1 window boundary (reached through a cascade).
      const int64_t w = r < 95 ? kTickPs << 8 : kTickPs << 16;
      const int64_t now = q.now().picos();
      return Time::ps((now / w + 1 + static_cast<int64_t>(next() % 3)) * w -
                      now);
    };
    struct Timer {
      TimerId id;
      int64_t t;
      bool live;
    };
    std::vector<Timer> timers(1);  // indexed by event id; 0 unused
    std::function<void(int)> plant = [&](int id) {
      timers[static_cast<size_t>(id)].live = false;
      fired.emplace_back(q.now().picos(), id);
      if (fired.size() > 20000) return;
      const size_t first_child = timers.size();
      const int kids = static_cast<int>(next() % 4);
      for (int k = 0; k < kids; ++k) {
        const int child = static_cast<int>(timers.size());
        const Time t = q.now() + horizon();
        timers.push_back(
            {q.schedule(t, [&, child] { plant(child); }), t.picos(), true});
        if (next() % 6 == 0) {
          q.cancel(timers.back().id);
          timers.back().live = false;
          if (kinds) ++kinds->same_step;
        }
      }
      // Cancel recent timers scheduled at earlier steps: a random one, and
      // one due in this very bucket (it waits in the ready run).
      const size_t lo = first_child > 256 ? first_child - 256 : 1;
      const int64_t bucket = q.now().picos() / kTickPs;
      auto cancel = [&](Timer& victim) {
        q.cancel(victim.id);
        victim.live = false;
        if (kinds) {
          ++(victim.t / kTickPs == bucket ? kinds->same_bucket
                                          : kinds->later);
        }
      };
      if (next() % 3 == 0 && first_child > lo) {
        Timer& victim = timers[lo + next() % (first_child - lo)];
        if (victim.live) cancel(victim);
      }
      if (next() % 2 == 0) {
        for (size_t i = first_child; i-- > lo;) {
          if (timers[i].live && timers[i].t / kTickPs == bucket) {
            cancel(timers[i]);
            break;
          }
        }
      }
    };
    for (int i = 0; i < 32; ++i) {
      const int id = static_cast<int>(timers.size());
      const Time t = Time::ns(static_cast<int64_t>(next() % 1000));
      timers.push_back(
          {q.schedule(t, [&, id] { plant(id); }), t.picos(), true});
    }
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    return fired;
  };
  CancelKinds kinds;
  const auto hybrid = run(EventQueue::Backend::kHybrid, &kinds);
  const auto heap = run(EventQueue::Backend::kHeapOnly, nullptr);
  ASSERT_GT(hybrid.size(), 20000u);
  EXPECT_EQ(hybrid, heap);
  EXPECT_GT(kinds.same_step, 1000);
  EXPECT_GT(kinds.same_bucket, 100);
  EXPECT_GT(kinds.later, 1000);
}

TEST(TimingWheel, HybridQueueRoutesHotEventsToWheel) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule(Time::ns(10 * i), [] {});
  }
  q.schedule(Time::sec(1), [] {});  // far future: heap
  // Routing is decided in schedule(), before the queue steps.
  EXPECT_EQ(q.wheel_scheduled(), 100u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.run();
  EXPECT_EQ(q.fired(), 101u);
}

}  // namespace
