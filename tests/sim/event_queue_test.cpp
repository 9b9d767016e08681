#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace {

using xpass::sim::EventQueue;
using xpass::sim::Time;
using xpass::sim::TimerId;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(3), [&] { order.push_back(3); });
  q.schedule(Time::us(1), [&] { order.push_back(1); });
  q.schedule(Time::us(2), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Time::us(3));
}

TEST(EventQueue, EqualTimestampsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::us(5), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.cancel(id);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(TimerId{});
  q.cancel(TimerId{12345, 0});  // slot that was never allocated
  int fired = 0;
  q.schedule(Time::us(1), [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(10), [&] { ++fired; });
  q.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Time::us(5));  // clock advances even with no event
  q.run_until(Time::us(20));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtBoundaryIncluded) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::us(5), [&] { ++fired; });
  q.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) q.schedule(q.now() + Time::us(1), step);
  };
  q.schedule(Time::zero(), step);
  q.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(q.now(), Time::us(4));
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  TimerId a = q.schedule(Time::us(1), [] {});
  q.schedule(Time::us(2), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);  // exact, immediately
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepReturnsFalseWhenExhausted) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule(Time::us(1), [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelDuringExecutionOfEarlierEvent) {
  EventQueue q;
  int fired = 0;
  TimerId later{};
  later = q.schedule(Time::us(2), [&] { ++fired; });
  q.schedule(Time::us(1), [&] { q.cancel(later); });
  q.run();
  EXPECT_EQ(fired, 0);
}

// Regression: the seed implementation kept cancelled ids in a tombstone set
// that was only cleaned when the id surfaced at the heap top, so cancelling
// an already-fired timer — which every connection teardown does — grew the
// set forever. The slot-pool design must retain no per-timer state after a
// fire/cancel, for any interleaving.
TEST(EventQueue, CancelAfterFireRetainsNoPerTimerState) {
  EventQueue q;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    TimerId id = q.schedule(q.now() + Time::ns(1), [] {});
    ASSERT_TRUE(q.step());
    q.cancel(id);  // after fire: must be a no-op, retaining nothing
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fired(), 1'000'000u);
  EXPECT_EQ(q.cancelled(), 0u);  // every cancel hit an already-fired timer
  // One live event at a time -> the pool never grew past one slot, no
  // matter how many cancel-after-fire calls were made.
  EXPECT_EQ(q.pool_slots(), 1u);
  EXPECT_EQ(q.heap_entries(), 0u);
}

// The window transports' RTO pattern: every 1 us tick (an ACK) cancels the
// connection's 10 ms retransmission timer and arms a new one. The cancelled
// timer was linked into a wheel bucket when it was scheduled, so cancel()
// frees its slot at once and the pool holds only the live events. A cancel
// that merely disarmed would keep each timer's slot until its old deadline,
// 10^4 ticks later.
TEST(EventQueue, RearmedTimerFreesItsSlotAtCancel) {
  EventQueue q;
  constexpr int kTicks = 100'000;
  TimerId rto;
  int ticks = 0;
  std::function<void()> tick = [&] {
    q.cancel(rto);
    rto = q.schedule(q.now() + Time::ms(10), [] { FAIL() << "RTO fired"; });
    if (++ticks < kTicks) q.schedule(q.now() + Time::us(1), [&] { tick(); });
  };
  q.schedule(Time::us(1), [&] { tick(); });
  while (ticks < kTicks && q.step()) {
  }
  EXPECT_EQ(ticks, kTicks);
  EXPECT_EQ(q.cancelled(), static_cast<uint64_t>(kTicks - 1));
  EXPECT_EQ(q.pending(), 1u);
  // pool_slots() is the high-water mark: the tick, its successor and one
  // RTO, never the cancelled timers.
  EXPECT_LE(q.pool_slots(), 4u);
}

// A timer cancelled by the code that just scheduled it, before the queue
// steps again, frees its slot at once: a near-future one is already linked
// in a wheel bucket, and a far-future one is the heap top, skimmed at
// cancel. Nothing cancelled is left behind in either structure.
TEST(EventQueue, SameStepCancelFreesItsSlot) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    const Time t = i % 2 == 0 ? Time::us(1 + i % 7) : Time::ms(200 + i);
    q.cancel(q.schedule(t, [] { FAIL() << "cancelled"; }));
  }
  bool far_fired = false;
  q.schedule(Time::ms(500), [&] { far_fired = true; });
  EXPECT_EQ(q.pool_slots(), 1u);
  EXPECT_EQ(q.heap_entries(), 1u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled(), 1000u);
  q.run();
  EXPECT_TRUE(far_fired);
  EXPECT_EQ(q.pool_slots(), 1u);
  EXPECT_EQ(q.heap_entries(), 0u);
}

// A handle whose entry already left its bucket for the ready run takes the
// lazy path — even when the wheel node it was linked at has since been
// recycled for another entry, which must survive.
TEST(EventQueue, CancelAfterDrainSparesTheNodesNextEntry) {
  EventQueue q;
  bool b_fired = false;
  bool c_fired = false;
  // B is scheduled (and linked) first, A second but earlier, in the same
  // 8 ns bucket: draining frees A's node, then B's, so B's node is the
  // next one handed out.
  const TimerId b =
      q.schedule(Time::ns(10) + Time::ps(1), [&] { b_fired = true; });
  q.schedule(Time::ns(10), [&] {
    q.schedule(q.now() + Time::us(1), [&] { c_fired = true; });
  });
  // Fires A, whose callback links C at B's old node; B waits in the
  // ready run.
  ASSERT_TRUE(q.step());
  ASSERT_EQ(q.next_time(), Time::ns(10) + Time::ps(1));
  q.cancel(b);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_FALSE(b_fired);
  EXPECT_TRUE(c_fired);
  EXPECT_EQ(q.fired(), 2u);
  EXPECT_EQ(q.cancelled(), 1u);
  q.cancel(b);  // stale: a no-op
  EXPECT_EQ(q.cancelled(), 1u);
}

TEST(EventQueue, PendingStaysExactAcrossScheduleCancelChurn) {
  // Deterministic mix of schedule / cancel-before-fire / cancel-after-fire /
  // fire, shadow-tracked; pending() must match the shadow count at every
  // step of 1e6 cycles, and all per-timer state must drain at the end.
  EventQueue q;
  uint64_t lcg = 12345;
  struct Tracked {
    TimerId id;
    std::shared_ptr<bool> fired;  // set by the callback itself
  };
  std::vector<Tracked> live;
  std::vector<TimerId> stale;  // ids known to be fired or cancelled
  size_t expected = 0;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t op = (lcg >> 33) % 4;
    switch (op) {
      case 0:  // schedule
      case 1: {
        auto flag = std::make_shared<bool>(false);
        live.push_back(
            {q.schedule(q.now() + Time::ns(1 + ((lcg >> 40) % 1000)),
                        [flag] { *flag = true; }),
             flag});
        ++expected;
        break;
      }
      case 2:  // cancel a tracked id (it may or may not have fired already)
        if (!live.empty()) {
          Tracked t = live.back();
          live.pop_back();
          const bool was_live = !*t.fired;
          q.cancel(t.id);  // cancel-after-fire when !was_live: must be inert
          if (was_live) --expected;
          stale.push_back(t.id);
        } else if (!stale.empty()) {
          q.cancel(stale[(lcg >> 8) % stale.size()]);  // must be a no-op
        }
        break;
      case 3:  // fire
        if (expected > 0) {
          ASSERT_TRUE(q.step());
          --expected;
        } else {
          ASSERT_FALSE(q.step());
        }
        break;
    }
    ASSERT_EQ(q.pending(), expected);
    if (stale.size() > 4096) stale.resize(1024);
  }
  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.heap_entries(), 0u);
  // The pool is bounded by peak concurrency (a ~zero-drift random walk,
  // thousands here), not by the ~500k schedules that passed through it.
  EXPECT_LE(q.pool_slots(), 100'000u);
}

TEST(EventQueue, StaleCancelDoesNotKillSlotReuser) {
  EventQueue q;
  int fired = 0;
  TimerId a = q.schedule(Time::us(1), [] {});
  q.run();  // `a` fires; its slot returns to the free list
  TimerId b = q.schedule(Time::us(2), [&] { ++fired; });
  EXPECT_EQ(b.slot, a.slot);   // slot recycled...
  EXPECT_NE(b.gen, a.gen);     // ...under a new generation
  q.cancel(a);                 // stale handle must not cancel b
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DoubleCancelReleasesOnlyOnce) {
  EventQueue q;
  int fired = 0;
  TimerId a = q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.cancel(a);
  q.cancel(a);  // second cancel sees a disarmed slot: no-op
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MoveOnlyCallbacksSupported) {
  // std::function required copyable targets; the SBO Callback must not.
  EventQueue q;
  auto p = std::make_unique<int>(42);
  int got = 0;
  q.schedule(Time::us(1), [p = std::move(p), &got] { got = *p; });
  q.run();
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, LargeCapturesFallBackToHeapCorrectly) {
  EventQueue q;
  std::array<char, 256> big{};
  big[0] = 'x';
  big[255] = 'y';
  char first = 0, last = 0;
  q.schedule(Time::us(1), [big, &first, &last] {
    first = big[0];
    last = big[255];
  });
  TimerId c = q.schedule(Time::us(2), [big, &first] { first = 'z'; });
  q.cancel(c);  // cancelling a heap-backed callback must free it cleanly
  q.run();
  EXPECT_EQ(first, 'x');
  EXPECT_EQ(last, 'y');
}

#ifdef XPASS_SANITIZE
TEST(EventQueueDeathTest, PastTimeScheduleAbortsUnderSanitize) {
  // Under XPASS_SANITIZE a past-time schedule is a hard bug, not something
  // to paper over: the queue aborts with a diagnostic.
  EventQueue q;
  q.schedule(Time::us(2), [] {});
  q.run();  // now() == 2us
  EXPECT_DEATH(q.schedule(Time::us(1), [] {}), "past-time schedule");
}
#else
TEST(EventQueue, PastTimeScheduleClampsToNow) {
  // Release builds clamp a past-time schedule to now(): the event fires
  // immediately — but in FIFO position *after* events already queued at
  // now(), never "in the past" (which would reorder history and break the
  // determinism contract).
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(2), [&] {
    order.push_back(0);
    // Queued at the same instant, before the past-time event is scheduled.
    q.schedule(Time::us(2), [&] { order.push_back(1); });
    // t < now(): clamps to now() == 2us, fires after the event above.
    q.schedule(Time::us(1), [&] {
      order.push_back(2);
      EXPECT_EQ(q.now(), Time::us(2));
    });
  });
  q.schedule(Time::us(3), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}
#endif

TEST(EventQueue, CancelFromWithinOwnCallbackWindow) {
  // A callback cancelling its own (already-fired) id must be inert even
  // though the slot was just recycled into the free list.
  EventQueue q;
  int fired = 0;
  TimerId self{};
  self = q.schedule(Time::us(1), [&] {
    q.cancel(self);  // stale by the time it runs
    ++fired;
  });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pool_slots(), 2u);
}

}  // namespace
