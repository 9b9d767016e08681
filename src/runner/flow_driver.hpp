// FlowDriver: schedules flows on a Transport, collects FCTs and goodput.
//
// This is the top of the public API: build a Topology, pick a Transport,
// hand the driver a list of FlowSpecs (from workload/ generators or by
// hand), run the simulator, read the collectors.
//
// Sharded runs (set_parallel) split collection: completion callbacks fire on
// the destination host's shard thread, so each shard gets its own sink (a
// RateTracker plus a completion log) and the driver's scenario-facing
// collectors (fcts(), rates()) are filled by canonical merges that run on
// the barrier/main thread only — sync_rates() at window barriers,
// finish_parallel() once after the run. Failure settlement can come from
// either half of a connection, so failed_ is a plain atomic counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "sim/parallel.hpp"
#include "stats/fct.hpp"
#include "stats/rate_tracker.hpp"
#include "stats/recorder.hpp"
#include "transport/connection.hpp"

namespace xpass::runner {

class FlowDriver {
 public:
  FlowDriver(sim::Simulator& sim, transport::Transport& transport)
      : sim_(sim), transport_(transport) {}

  // Sharded collection: one sink per shard, flows indexed by their
  // destination host's shard (`shard_of` by node id — the partitioner's
  // map, which must outlive the driver). Call before any add().
  void set_parallel(sim::ParallelSimulator& psim,
                    const std::vector<uint32_t>& shard_of);

  // The transport all flows are created through (scalar extraction probes
  // it for optional capabilities, e.g. transport::GrantAccounting).
  transport::Transport& transport() const { return transport_; }

  // Schedules creation + start of the flow at spec.start_time. Returns the
  // connection (owned by the driver) so callers may re-hook callbacks or
  // inspect protocol state.
  transport::Connection& add(const transport::FlowSpec& spec);
  void add_all(const std::vector<transport::FlowSpec>& specs) {
    for (const auto& s : specs) add(s);
  }

  // Mixed-protocol (coexistence) flows: create through `t` instead of the
  // primary transport and tag the flow with a group index for per-group
  // result extraction. Serial runs only (the parallel envelope rejects
  // mixed-protocol specs). The global collectors (fcts(), rates(),
  // scheduled()/completed()/failed()) still see every grouped flow.
  transport::Connection& add_grouped(const transport::FlowSpec& spec,
                                     transport::Transport& t, size_t group);

  // Per-group collectors (empty unless add_grouped was used).
  size_t group_count() const { return groups_.size(); }
  size_t group_scheduled(size_t g) const { return groups_[g]->scheduled; }
  size_t group_completed(size_t g) const {
    return groups_[g]->fcts.completed();
  }
  size_t group_failed(size_t g) const {
    return groups_[g]->failed.load(std::memory_order_relaxed);
  }
  const stats::FctCollector& group_fcts(size_t g) const {
    return groups_[g]->fcts;
  }
  // Group index of a flow id, or SIZE_MAX for ungrouped flows.
  size_t group_of(uint32_t flow_id) const {
    auto it = std::lower_bound(
        flow_group_.begin(), flow_group_.end(), flow_id,
        [](const auto& e, uint32_t id) { return e.first < id; });
    return it != flow_group_.end() && it->first == flow_id ? it->second
                                                          : SIZE_MAX;
  }

  // Runs until every scheduled flow is settled (completed or failed) or
  // `deadline` passes, checking every `chunk`. Returns true iff everything
  // *completed* — aborted flows end the wait but still count as a false
  // result. `advance(t)` moves the clock to t and returns false once a
  // budget abort stopped it; by default it runs the driver's simulator.
  bool run_to_completion(sim::Time deadline,
                         sim::Time chunk = sim::Time::ms(1),
                         const std::function<bool(sim::Time)>& advance = {});

  // Drains every shard sink's goodput into rates() in shard order (no-op in
  // serial runs). Call only at window barriers / after the run, when the
  // worker threads are parked.
  void sync_rates();
  // Canonical merge of the shard completion logs into fcts(): completions
  // sort by (completion time, flow id) — a total order independent of which
  // shard observed them — then record in that order. Call once, after the
  // run. Includes a final sync_rates(). No-op in serial runs.
  void finish_parallel();

  size_t scheduled() const { return scheduled_; }
  size_t completed() const {
    size_t n = fcts_.completed();
    for (const auto& s : sinks_) n += s->completions.size();
    return n;
  }
  // Flows the protocol gave up on (endpoint unreachable past the retry
  // budget). completed() + failed() == scheduled() once everything settled.
  size_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  stats::FctCollector& fcts() { return fcts_; }
  stats::RateTracker& rates() { return rates_; }

  const std::vector<std::unique_ptr<transport::Connection>>& connections()
      const {
    return conns_;
  }
  // Stops every connection (cancels timers, unregisters handlers).
  void stop_all();

  // Telemetry hook: registers the scheduling counters as pull probes
  // ("flows.scheduled", "flows.completed", "flows.failed") and, when
  // `per_flow_series` is set, one "flow.<id>.bytes" series gauge per
  // already-added flow (cumulative delivered bytes — sampling never resets
  // the goodput windows). Sharded runs sample at barriers, where the shard
  // sinks are quiescent and rates() has been synced.
  void register_telemetry(stats::Recorder& r, bool per_flow_series = false) {
    r.gauge("flows.scheduled",
            [this] { return static_cast<double>(scheduled()); });
    r.gauge("flows.completed",
            [this] { return static_cast<double>(completed()); });
    r.gauge("flows.failed", [this] { return static_cast<double>(failed()); });
    if (per_flow_series) {
      for (const auto& c : conns_) {
        const uint32_t id = c->spec().id;
        r.series_gauge("flow." + std::to_string(id) + ".bytes", [this, id] {
          return static_cast<double>(rates_.cumulative_bytes(id));
        });
      }
    }
  }

 private:
  // One flow's settlement record, written by its destination shard's thread.
  struct Completion {
    sim::Time t;  // completion time (receiver clock)
    uint32_t id;
    uint64_t bytes;
    sim::Time fct;
  };
  struct ShardSink {
    stats::RateTracker rates;
    std::vector<Completion> completions;
  };
  // Per-group sinks for coexistence runs (serial only, so plain counters
  // would do — failed stays atomic for symmetry with failed_).
  struct GroupStats {
    size_t scheduled = 0;
    std::atomic<size_t> failed{0};
    stats::FctCollector fcts;
  };

  sim::Simulator& sim_;
  transport::Transport& transport_;
  std::vector<std::unique_ptr<transport::Connection>> conns_;
  stats::FctCollector fcts_;
  stats::RateTracker rates_;
  std::vector<std::unique_ptr<ShardSink>> sinks_;  // empty = serial
  const std::vector<uint32_t>* shard_of_ = nullptr;
  std::vector<std::unique_ptr<GroupStats>> groups_;   // empty = ungrouped
  std::vector<std::pair<uint32_t, size_t>> flow_group_;  // sorted by flow id
  size_t scheduled_ = 0;
  std::atomic<size_t> failed_{0};
};

}  // namespace xpass::runner
