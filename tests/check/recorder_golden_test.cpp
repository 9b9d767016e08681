// Recorder-output goldens over the protocol matrix.
//
// Each protocol runs one pinned scenario and its full xpass.recorder.v1
// JSON must match the committed golden byte-for-byte. The goldens for the
// ten pre-framework protocols were captured *before* the credit-scheduler
// extraction (transport/credit_sched.hpp) refactored core::ExpressPass, so
// this test is the proof that the extraction changed no recorder output —
// and, going forward, that no refactor silently shifts any protocol's
// trajectory. Regenerate deliberately with:
//   XPASS_REGEN_RECORDER_GOLDEN=1 ./test_recorder_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
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

std::string golden_path(Protocol p) {
  return std::string(XPASS_RECORDER_GOLDEN_DIR) + "/" +
         std::string(protocol_name(p)) + ".json";
}

TEST(RecorderGolden, EveryProtocolMatchesCommittedJson) {
  const bool regen = std::getenv("XPASS_REGEN_RECORDER_GOLDEN") != nullptr;
  for (const ProtocolInfo& row : protocol_table()) {
    const Protocol p = row.protocol;
    ScenarioSpec spec;
    spec.topology.scale = 3;
    spec.topology.host_prop = Time::us(2);
    spec.traffic.kind = TrafficKind::kIncast;
    spec.traffic.flows = 5;
    spec.traffic.bytes = 80'000;
    spec.stop = StopSpec::completion(Time::sec(1));
    spec.check_invariants = true;
    spec.protocol = p;
    spec.seed = 42;
    spec.name =
        std::string("recorder-golden/") + std::string(protocol_name(p));

    const ScenarioResult r = ScenarioEngine().run(spec);
    const std::string json = r.recorder.to_json(spec.name);

    const std::string path = golden_path(p);
    if (regen) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << json;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (regenerate with "
                              "XPASS_REGEN_RECORDER_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(json, want.str())
        << spec.name << ": recorder JSON diverged from the committed golden";
  }
}

// One pinned mixed-protocol scenario: the golden carries the group.<g>.*
// scalar family, so any refactor that shifts the grouped engine path (per
// -group transports, on/off bursts, link jitter, group extraction) diffs
// here byte-for-byte.
TEST(RecorderGolden, MixedCoexistenceMatchesCommittedJson) {
  const bool regen = std::getenv("XPASS_REGEN_RECORDER_GOLDEN") != nullptr;
  ScenarioSpec spec;
  spec.name = "recorder-golden/mixed";
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

  xpass::runner::FlowGroupSpec cubic;
  cubic.protocol = Protocol::kCubic;
  cubic.traffic.kind = TrafficKind::kOnOff;
  cubic.traffic.bytes = xpass::transport::kLongRunning;
  cubic.traffic.flows = 2;
  cubic.traffic.on_period_sec = 4e-3;
  cubic.traffic.on_duty = 0.5;
  spec.flow_groups.push_back(cubic);

  const ScenarioResult r = ScenarioEngine().run(spec);
  const std::string json = r.recorder.to_json(spec.name);
  const std::string path =
      std::string(XPASS_RECORDER_GOLDEN_DIR) + "/mixed_coexistence.json";
  if (regen) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with "
                            "XPASS_REGEN_RECORDER_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(json, want.str())
      << spec.name << ": recorder JSON diverged from the committed golden";
}

}  // namespace
