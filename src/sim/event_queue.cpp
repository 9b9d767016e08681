#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

namespace xpass::sim {

namespace {
constexpr size_t kArity = 4;
}  // namespace

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != TimerId::kInvalidSlot) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  // Pool growth only happens when every existing slot is pending, so this
  // check is off the per-event path.
  if (slots_.size() > kSlotMask) {
    throw std::length_error(
        "EventQueue: more than 2^20 concurrently pending events");
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  s.armed = false;
  ++s.gen;  // invalidate every TimerId handed out for this use of the slot
  s.next_free = free_head_;
  free_head_ = idx;
}

TimerId EventQueue::schedule(Time t, Callback cb) {
  if (t < now_) {
    // The documented contract is t >= now(). A past-time event would fire
    // out of order relative to events already fired at now() and break the
    // FIFO-determinism contract, so it is clamped to now() — it still fires
    // after everything already scheduled at now(), in scheduling order.
    // Under the sanitize preset the offending call site is a bug to fix,
    // not to paper over: fail loudly at the source.
#ifdef XPASS_SANITIZE
    std::fprintf(stderr,
                 "EventQueue::schedule: past-time schedule (t=%lld ps < "
                 "now=%lld ps)\n",
                 static_cast<long long>(t.picos()),
                 static_cast<long long>(now_.picos()));
    std::abort();
#else
    t = now_;
#endif
  }
  const uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.node = TimingWheel::kNoNode;
  s.armed = true;
  const Entry e{t, (next_seq_++ << kSlotBits) | idx};
  ++live_count_;
  // Near-future events go to the wheel, the rest to the heap. Fire order is
  // the (t, seq) minimum across both, whichever one an entry landed in.
  if (backend_ == Backend::kHybrid) {
    bool wheeled = wheel_.try_schedule(e.t, e.key, &s.node);
    if (!wheeled && wheel_.empty()) {
      // The wheel idled through a heap-only stretch and its span window
      // fell behind now(); re-anchor it and retry.
      wheel_.sync(now_);
      wheeled = wheel_.try_schedule(e.t, e.key, &s.node);
    }
    if (wheeled) {
      ++wheel_scheduled_;
      return TimerId{idx, s.gen};
    }
  }
  ++heap_scheduled_;
  heap_push(e);
  return TimerId{idx, s.gen};
}

void EventQueue::cancel(TimerId id) {
  if (id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || !s.armed) return;  // fired, cancelled, or reused
  s.armed = false;
  s.cb.reset();  // release captured resources now, not at heap drain
  --live_count_;
  ++cancelled_;
  // An entry linked in a wheel bucket is unlinked and freed, node and slot,
  // right now: the RTO re-armed on every ACK would otherwise hold both until
  // its old deadline came round. A node whose bucket has drained may since
  // hold another entry; only this event's entry carries this slot index
  // (a slot is reused only after its entry left every structure), so the
  // key's slot bits tell the two apart.
  if (s.node != TimingWheel::kNoNode) {
    const std::optional<uint64_t> key = wheel_.linked_key(s.node);
    if (key && (static_cast<uint32_t>(*key) & kSlotMask) == id.slot) {
      wheel_.remove(s.node);
      release_slot(id.slot);
      return;
    }
  }
  // Otherwise the slot is reclaimed when its entry surfaces: as the ready
  // run reaches it, or at the heap top — right away for the common
  // cancel-and-reschedule pattern, where the entry is often the current top.
  skim_cancelled();
}

const TimingWheel::Entry* EventQueue::next_wheel() {
  const TimingWheel::Entry* w;
  while ((w = wheel_.peek()) != nullptr &&
         !slots_[static_cast<uint32_t>(w->key) & kSlotMask].armed) {
    // Cancelled while in the ready run: reclaim the pool slot as the entry
    // surfaces (the wheel-side analogue of skim_cancelled).
    release_slot(static_cast<uint32_t>(wheel_.pop().key) & kSlotMask);
  }
  return w;
}

bool EventQueue::next(Time& t, bool& from_heap) {
  skim_cancelled();
  const TimingWheel::Entry* w = next_wheel();
  const bool heap_has = !heap_.empty();
  if (!w && !heap_has) return false;
  from_heap = !w || (heap_has && earlier(heap_[0], Entry{w->t, w->key}));
  t = from_heap ? heap_[0].t : w->t;
  return true;
}

void EventQueue::fire(bool from_heap) {
  Entry e{};
  if (from_heap) {
    e = heap_pop();
  } else {
    const TimingWheel::Entry w = wheel_.pop();
    e = Entry{w.t, w.key};
  }
  Callback cb = std::move(slots_[e.slot()].cb);
  release_slot(e.slot());
  now_ = e.t;
  --live_count_;
  ++fired_;
  // No references into slots_/heap_ may be held across the call: the
  // callback can schedule, growing either vector.
  cb();
}

Time EventQueue::next_time() {
  Time t;
  bool from_heap = false;
  return next(t, from_heap) ? t : Time::max();
}

bool EventQueue::step() {
  Time t;
  bool from_heap = false;
  if (!next(t, from_heap)) return false;
  fire(from_heap);
  return true;
}

bool EventQueue::step_until(Time t_end) {
  Time t;
  bool from_heap = false;
  if (!next(t, from_heap) || t > t_end) return false;
  fire(from_heap);
  return true;
}

void EventQueue::skim_cancelled() {
  while (!heap_.empty() && !slots_[heap_[0].slot()].armed) {
    release_slot(heap_pop().slot());
  }
}

void EventQueue::run_until(Time t_end) {
  while (step_until(t_end)) {
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::heap_push(Entry e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

EventQueue::Entry EventQueue::heap_pop() {
  const Entry top = heap_[0];
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    sift_down(0);
  }
  return top;
}

void EventQueue::sift_up(size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(size_t i) {
  const size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t lim = std::min(first + kArity, n);
    for (size_t c = first + 1; c < lim; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace xpass::sim
