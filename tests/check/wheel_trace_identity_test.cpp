// Timing-wheel trace identity over the protocol matrix.
//
// The hybrid event queue routes near-term events through a hierarchical
// timing wheel and keeps the 4-ary heap only for far-future overflow. That
// is a scheduling-structure swap, not a semantic change: for any scenario,
// the hybrid and heap-only backends must pop the exact same (time, FIFO)
// sequence, and therefore produce byte-identical recorder JSON. Running the
// check across every protocol exercises every timer idiom in the codebase —
// credit pacing, RTT gradients, RTOs, ECN marking windows, fault timers —
// against the wheel's cascade/late-insert/ready-run machinery.
#include <gtest/gtest.h>

#include <string>

#include "runner/protocols.hpp"
#include "runner/scenario.hpp"

namespace {

using xpass::runner::Protocol;
using xpass::runner::ProtocolInfo;
using xpass::runner::protocol_name;
using xpass::runner::protocol_table;
using xpass::runner::ScenarioEngine;
using xpass::runner::ScenarioResult;
using xpass::runner::ScenarioSpec;
using xpass::runner::StopSpec;
using xpass::runner::TrafficKind;
using xpass::sim::Time;

TEST(WheelTraceIdentity, EveryProtocolHybridMatchesHeapOnly) {
  ScenarioSpec base;
  base.topology.scale = 3;
  base.topology.host_prop = Time::us(2);
  base.traffic.kind = TrafficKind::kIncast;
  base.traffic.flows = 6;
  base.traffic.bytes = 150'000;
  base.stop = StopSpec::completion(Time::sec(1));
  base.check_invariants = true;

  for (const ProtocolInfo& row : protocol_table()) {
    const Protocol p = row.protocol;
    ScenarioSpec spec = base;
    spec.protocol = p;
    spec.seed = 42;
    spec.name = std::string("wheel-identity/") +
                std::string(protocol_name(p));

    ScenarioSpec heap_spec = spec;
    heap_spec.heap_only_events = true;

    const ScenarioResult wheel = ScenarioEngine().run(spec);
    const ScenarioResult heap = ScenarioEngine().run(heap_spec);

    EXPECT_EQ(wheel.recorder.to_json(spec.name),
              heap.recorder.to_json(spec.name))
        << spec.name << ": recorder JSON differs between backends";
    EXPECT_EQ(wheel.end_time, heap.end_time) << spec.name;
    EXPECT_EQ(wheel.completed, heap.completed) << spec.name;
    EXPECT_EQ(wheel.data_drops, heap.data_drops) << spec.name;
  }
}

// Same bar for the mixed-protocol path: per-link jitter draws and on/off
// burst scheduling must pop identically from the wheel and the heap.
TEST(WheelTraceIdentity, MixedProtocolHybridMatchesHeapOnly) {
  ScenarioSpec spec;
  spec.name = "wheel-identity/mixed";
  spec.protocol = Protocol::kExpressPass;
  spec.seed = 42;
  spec.topology.scale = 4;
  spec.topology.host_prop = Time::us(2);
  spec.topology.link_jitter = Time::us(1);
  spec.stop = StopSpec::measure_window(Time::ms(5), Time::ms(10));
  spec.check_invariants = true;

  xpass::runner::FlowGroupSpec xp;
  xp.protocol = Protocol::kExpressPass;
  xp.traffic.kind = TrafficKind::kPairwise;
  xp.traffic.bytes = xpass::transport::kLongRunning;
  xp.traffic.flows = 2;
  spec.flow_groups.push_back(xp);

  xpass::runner::FlowGroupSpec cross;
  cross.protocol = Protocol::kBbr;
  cross.traffic.kind = TrafficKind::kOnOff;
  cross.traffic.bytes = xpass::transport::kLongRunning;
  cross.traffic.flows = 2;
  cross.traffic.on_period_sec = 4e-3;
  cross.traffic.on_duty = 0.5;
  spec.flow_groups.push_back(cross);

  ScenarioSpec heap_spec = spec;
  heap_spec.heap_only_events = true;

  const ScenarioResult wheel = ScenarioEngine().run(spec);
  const ScenarioResult heap = ScenarioEngine().run(heap_spec);
  EXPECT_EQ(wheel.recorder.to_json(spec.name),
            heap.recorder.to_json(spec.name));
  EXPECT_EQ(wheel.end_time, heap.end_time);
  ASSERT_EQ(wheel.groups.size(), heap.groups.size());
  for (size_t g = 0; g < wheel.groups.size(); ++g) {
    EXPECT_EQ(wheel.groups[g].goodput_bps, heap.groups[g].goodput_bps);
  }
}

}  // namespace
