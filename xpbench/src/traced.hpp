// The traced run: each workload rebuilt from the layers' public functions
// (net builders, runner::make_transport / FlowDriver, workload generators,
// Simulator::run_until, the stats collectors, exec::SweepRunner), with a
// span around every call into a layer. Spans live in memory and are written
// once the run ends. Nothing inside the program is instrumented; the spans
// and the layer counters are taken from this file's side of each call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace xpbench {

struct Span {
  const char* name;  // "<layer>.<call>"
  int64_t start_ns;  // steady clock, relative to the tracer's epoch
  int64_t end_ns;
  int32_t parent;    // index into the same span vector, -1 for a root
  uint32_t run;      // one id per workload run (grid: one per cell)
};

// Per-layer counts read at layer boundaries after a cell finishes. Peaks
// of live state (pending events, tracked backpressure flows, live packets)
// are sampled at the end of every run_until slice.
struct LayerCounts {
  // sim
  uint64_t events = 0;
  uint64_t cancelled = 0;
  uint64_t wheel_scheduled = 0;
  uint64_t heap_scheduled = 0;
  uint64_t peak_pending = 0;
  uint64_t event_slots = 0;
  // net
  uint64_t packet_hops = 0;
  uint64_t kick_events = 0;
  uint64_t retry_events = 0;
  uint64_t credit_drops = 0;
  uint64_t data_drops = 0;
  uint64_t flow_pause_events = 0;
  uint64_t bp_peak_flows = 0;
  uint64_t pool_peak_packets = 0;
  // core (ExpressPass connections)
  uint64_t credits_sent = 0;
  uint64_t credits_received = 0;
  uint64_t credits_wasted = 0;
  uint64_t credits_lost = 0;
  uint64_t credit_stops = 0;
  // transport
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t grants_issued = 0;
  uint64_t grants_wasted = 0;
  // workload / runner / stats
  uint64_t offered_bytes = 0;  // sized flows only; long-running ones count 0
  uint64_t flows_scheduled = 0;
  uint64_t flows_completed = 0;
  uint64_t fct_samples = 0;

  void merge(const LayerCounts& o);
};

struct TracedRun {
  std::vector<CellOut> cells;
  LayerCounts counts;
  std::vector<Span> spans;
  double wall_s = 0;   // whole traced run, spec to result
  size_t workers = 1;  // exec workers the cells ran on
};

TracedRun run_traced(const Workload& w);

// Per-layer metrics (name -> value) derived from a traced run's spans and
// counts. Self time of a span is its duration minus its children's.
std::vector<std::pair<std::string, double>> layer_metrics(const TracedRun& r);

// Chrome trace-event JSON of the spans (opens in Perfetto / about:tracing).
std::string spans_json(const std::vector<Span>& spans);

}  // namespace xpbench
