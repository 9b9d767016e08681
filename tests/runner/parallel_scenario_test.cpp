// Sharded scenario-engine tests: the determinism matrix (fixed shard count
// => byte-identical recorder output across runs; --shards=1 == serial core)
// across protocols and seeds, envelope validation for protocols/features
// the sharded core cannot host, spec_json round-trip of the shard count,
// and campaign cache-key identity across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/spec_json.hpp"
#include "exec/campaign.hpp"
#include "runner/scenario.hpp"

namespace xpass::runner {
namespace {

using sim::Time;

ScenarioSpec base_spec(Protocol p, uint64_t seed, size_t shards) {
  ScenarioSpec s;
  s.name = "partest";
  s.seed = seed;
  s.protocol = p;
  s.topology.kind = TopologyKind::kFatTree;
  s.topology.fat_tree_k = 4;
  s.traffic.kind = TrafficKind::kPairwise;
  s.traffic.flows = 8;
  s.traffic.bytes = 100'000;
  s.traffic.start_spread_sec = 1e-4;
  s.stop = StopSpec::completion(Time::ms(20));
  s.shards = shards;
  return s;
}

std::string run_json(const ScenarioSpec& spec) {
  ScenarioEngine engine;
  const ScenarioResult r = engine.run(spec);
  return r.recorder.to_json(r.name);
}

// The expected shardable set, written out rather than read from the
// protocol table (every other row is rejected, below).
const Protocol kShardable[] = {
    Protocol::kExpressPass, Protocol::kExpressPassNaive, Protocol::kDctcp,
    Protocol::kRcp,         Protocol::kHull,             Protocol::kDx,
    Protocol::kCubic,       Protocol::kBbr,
};

bool expect_shardable(Protocol p) {
  return std::find(std::begin(kShardable), std::end(kShardable), p) !=
         std::end(kShardable);
}

TEST(ParallelScenario, DeterminismMatrixFixedShardCount) {
  // Two runs at the same shard count must agree byte-for-byte, for every
  // shardable protocol and multiple seeds.
  for (const ProtocolInfo& row : protocol_table()) {
    const Protocol p = row.protocol;
    if (!expect_shardable(p)) continue;
    for (uint64_t seed : {1ull, 29ull}) {
      const ScenarioSpec spec = base_spec(p, seed, 2);
      const std::string a = run_json(spec);
      const std::string b = run_json(spec);
      EXPECT_EQ(a, b) << "protocol " << protocol_name(p) << " seed " << seed
                      << " diverged across two shards=2 runs";
    }
  }
}

TEST(ParallelScenario, ShardsOneIsTheSerialCore) {
  // shards=1 (and shards=0) never build the parallel engine: recorder
  // output is byte-identical to a spec without the field.
  for (const ProtocolInfo& row : protocol_table()) {
    const Protocol p = row.protocol;
    if (!expect_shardable(p)) continue;
    ScenarioSpec serial = base_spec(p, 29, 0);
    ScenarioSpec one = base_spec(p, 29, 1);
    EXPECT_EQ(run_json(serial), run_json(one))
        << "protocol " << protocol_name(p) << ": shards=1 diverged from "
        << "the serial core";
  }
}

TEST(ParallelScenario, FourShardsDeterministicToo) {
  const ScenarioSpec spec = base_spec(Protocol::kExpressPass, 7, 4);
  EXPECT_EQ(run_json(spec), run_json(spec));
}

TEST(ParallelScenario, WindowStopWithRateSyncIsDeterministic) {
  // kWindow stop exercises the barrier-time rate sync (warmup snapshot +
  // measurement window over shard-local RateTrackers).
  ScenarioSpec spec = base_spec(Protocol::kExpressPass, 3, 2);
  spec.traffic.bytes = transport::kLongRunning;
  spec.stop = StopSpec::measure_window(Time::ms(2), Time::ms(5));
  const std::string a = run_json(spec);
  EXPECT_EQ(a, run_json(spec));
  // And the run actually measured something.
  EXPECT_NE(a.find("goodput"), std::string::npos);
}

TEST(ParallelScenario, FaultsAtBarriersAreDeterministic) {
  // Mid-run fault plan (control-thread events mutating shard-owned links).
  ScenarioSpec spec = base_spec(Protocol::kExpressPass, 11, 2);
  spec.faults.flap_down = Time::ms(2);
  spec.faults.flap_up = Time::ms(4);
  const std::string a = run_json(spec);
  EXPECT_EQ(a, run_json(spec));
}

TEST(ParallelScenario, UnshardableProtocolsThrowNamingTheProtocol) {
  for (Protocol p : {Protocol::kIdeal, Protocol::kDcqcn, Protocol::kTimely,
                     Protocol::kSird, Protocol::kBfc}) {
    ScenarioSpec spec = base_spec(p, 1, 2);
    ScenarioEngine engine;
    try {
      engine.run(spec);
      FAIL() << protocol_name(p)
             << " must be rejected by the parallel envelope";
    } catch (const std::invalid_argument& e) {
      // The error must name the offending protocol, not just a mechanism —
      // campaign logs bucket rejections by this string.
      EXPECT_NE(std::string(e.what()).find(protocol_name(p)),
                std::string::npos)
          << "rejection must name " << protocol_name(p) << ", got: "
          << e.what();
    }
  }
}

TEST(ParallelScenario, EveryProtocolIsClassifiedByTheEnvelope) {
  // Exhaustive over the protocol table: every row either runs sharded or is
  // rejected with std::invalid_argument — nothing may fall through to a
  // crash or a silently-wrong sharded run. A new shardable protocol must be
  // added to kShardable.
  for (const ProtocolInfo& row : protocol_table()) {
    const Protocol p = row.protocol;
    ScenarioSpec spec = base_spec(p, 1, 2);
    ScenarioEngine engine;
    if (expect_shardable(p)) {
      EXPECT_NO_THROW(engine.run(spec)) << protocol_name(p);
    } else {
      EXPECT_THROW(engine.run(spec), std::invalid_argument)
          << protocol_name(p) << " is not in kShardable, so the envelope "
          << "must reject it";
    }
  }
}

TEST(ParallelScenario, MixedProtocolSpecsRejectedByName) {
  // flow_groups run per-group transports and grouped result extraction —
  // serial-engine machinery. The envelope must say so, not crash or run a
  // silently-ungrouped sharded scenario.
  ScenarioSpec spec = base_spec(Protocol::kExpressPass, 1, 2);
  FlowGroupSpec xp;
  xp.protocol = Protocol::kExpressPass;
  xp.traffic = spec.traffic;
  spec.flow_groups.push_back(xp);
  FlowGroupSpec cubic;
  cubic.protocol = Protocol::kCubic;
  cubic.traffic = spec.traffic;
  spec.flow_groups.push_back(cubic);
  ScenarioEngine engine;
  try {
    engine.run(spec);
    FAIL() << "mixed-protocol flow_groups must be rejected by the envelope";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flow_groups"), std::string::npos)
        << "rejection must name flow_groups, got: " << e.what();
  }
}

TEST(ParallelScenario, JitteredLinkSpecsRejectedByName) {
  // Per-hop jitter draws from the serial simulator's RNG on every
  // transmission; shard-local RNG streams would diverge from the serial
  // trace, so the envelope rejects jittered topologies outright.
  ScenarioSpec spec = base_spec(Protocol::kExpressPass, 1, 2);
  spec.topology.link_jitter = Time::us(1);
  ScenarioEngine engine;
  try {
    engine.run(spec);
    FAIL() << "jittered links must be rejected by the envelope";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jitter"), std::string::npos)
        << "rejection must name the jitter feature, got: " << e.what();
  }
}

TEST(ParallelScenario, SpecJsonRoundTripsShards) {
  ScenarioSpec spec = base_spec(Protocol::kDctcp, 5, 4);
  const std::string text = check::spec_to_json(spec);
  EXPECT_NE(text.find("\"shards\""), std::string::npos);
  std::string err;
  auto parsed = check::spec_from_json(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->shards, 4u);
}

TEST(ParallelScenario, SerialSpecJsonOmitsShards) {
  // shards=0 and shards=1 both mean "serial" and must serialize
  // identically — existing campaign cache keys may not shift.
  ScenarioSpec zero = base_spec(Protocol::kDctcp, 5, 0);
  ScenarioSpec one = base_spec(Protocol::kDctcp, 5, 1);
  const std::string jz = check::spec_to_json(zero);
  EXPECT_EQ(jz.find("\"shards\""), std::string::npos);
  EXPECT_EQ(jz, check::spec_to_json(one));
}

TEST(ParallelScenario, CampaignCacheKeysSplitByShardCount) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "xpass_parallel_campaign_test";
  fs::remove_all(dir);

  // A sharded spec and its serial twin are different experiments: distinct
  // content addresses, so one can never serve a cache hit for the other.
  std::vector<ScenarioSpec> grid;
  grid.push_back(base_spec(Protocol::kExpressPass, 29, 0));
  grid.push_back(base_spec(Protocol::kExpressPass, 29, 2));
  exec::CampaignOptions opts;
  opts.cache_dir = dir.string();
  opts.jobs = 1;
  const exec::CampaignReport first = exec::run_campaign(grid, opts);
  ASSERT_EQ(first.tasks.size(), 2u);
  EXPECT_NE(first.tasks[0].key, first.tasks[1].key);
  EXPECT_EQ(first.hits, 0u);

  // Resume: both entries hit, each against its own key.
  opts.resume = true;
  const exec::CampaignReport second = exec::run_campaign(grid, opts);
  EXPECT_EQ(second.hits, 2u);
  EXPECT_EQ(second.tasks[0].key, first.tasks[0].key);
  EXPECT_EQ(second.tasks[1].key, first.tasks[1].key);
  // The sharded run's payload replays byte-identically from the store.
  EXPECT_EQ(second.tasks[1].payload, first.tasks[1].payload);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xpass::runner
