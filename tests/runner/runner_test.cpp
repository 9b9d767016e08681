#include <gtest/gtest.h>

#include <iterator>
#include <string_view>
#include <utility>

#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"

namespace {

using namespace xpass;
using runner::Protocol;
using sim::Time;

TEST(Protocols, NamesRoundTrip) {
  // The display names are spec-JSON values, recorder golden file names and
  // campaign cache-key inputs, so they are pinned here, not read back.
  const std::pair<Protocol, std::string_view> want[] = {
      {Protocol::kExpressPass, "ExpressPass"},
      {Protocol::kExpressPassNaive, "ExpressPass-naive"},
      {Protocol::kDctcp, "DCTCP"},
      {Protocol::kRcp, "RCP"},
      {Protocol::kHull, "HULL"},
      {Protocol::kDx, "DX"},
      {Protocol::kCubic, "Cubic"},
      {Protocol::kBbr, "BBR"},
      {Protocol::kDcqcn, "DCQCN"},
      {Protocol::kTimely, "TIMELY"},
      {Protocol::kSird, "SIRD"},
      {Protocol::kBfc, "BFC"},
      {Protocol::kIdeal, "Ideal"},
  };
  ASSERT_EQ(std::size(want), runner::protocol_table().size());
  for (const auto& [p, name] : want) {
    EXPECT_EQ(runner::protocol_name(p), name);
    auto parsed = runner::parse_protocol(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, p) << name;
  }
  EXPECT_FALSE(runner::parse_protocol("no-such-protocol").has_value());
  EXPECT_FALSE(runner::parse_protocol("").has_value());
  EXPECT_EQ(*runner::parse_protocol("naive"), Protocol::kExpressPassNaive);
}

TEST(Protocols, LowercaseCliNamesParse) {
  const std::pair<const char*, Protocol> cli[] = {
      {"expresspass", Protocol::kExpressPass},
      {"naive", Protocol::kExpressPassNaive},
      {"dctcp", Protocol::kDctcp},
      {"rcp", Protocol::kRcp},
      {"hull", Protocol::kHull},
      {"dx", Protocol::kDx},
      {"cubic", Protocol::kCubic},
      {"bbr", Protocol::kBbr},
      {"dcqcn", Protocol::kDcqcn},
      {"timely", Protocol::kTimely},
      {"sird", Protocol::kSird},
      {"bfc", Protocol::kBfc},
      {"ideal", Protocol::kIdeal},
  };
  ASSERT_EQ(std::size(cli), runner::protocol_table().size());
  for (const auto& [name, want] : cli) {
    auto parsed = runner::parse_protocol(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, want) << name;
    EXPECT_EQ(runner::protocol_info(want).alias, name);
  }
}

// The table is indexed by enum value, and parse_protocol searches it: both
// names of every row must lead back to that row.
TEST(Protocols, TableRowsParseBackByBothNames) {
  size_t i = 0;
  for (const runner::ProtocolInfo& row : runner::protocol_table()) {
    EXPECT_EQ(static_cast<size_t>(row.protocol), i++) << row.name;
    EXPECT_EQ(&runner::protocol_info(row.protocol), &row) << row.name;
    for (std::string_view name : {row.name, row.alias}) {
      auto parsed = runner::parse_protocol(name);
      ASSERT_TRUE(parsed.has_value()) << name;
      EXPECT_EQ(*parsed, row.protocol) << name;
    }
  }
  EXPECT_EQ(i, static_cast<size_t>(Protocol::kCount));
}

// The traits every layer branches on, pinned per protocol. The cross-traffic
// slots must be exactly 1..n (the fuzz generator indexes its draw by them),
// in the order that keeps the generator's spec stream unchanged.
TEST(Protocols, TraitsMatrix) {
  for (const runner::ProtocolInfo& row : runner::protocol_table()) {
    const Protocol p = row.protocol;
    const bool xp = p == Protocol::kExpressPass ||
                    p == Protocol::kExpressPassNaive;
    EXPECT_EQ(row.credit_scheduled, xp) << row.name;
    EXPECT_EQ(runner::is_credit_scheduled(p), xp) << row.name;
    int slot = 0;
    switch (p) {
      case Protocol::kCubic: slot = 1; break;
      case Protocol::kDctcp: slot = 2; break;
      case Protocol::kBbr: slot = 3; break;
      case Protocol::kTimely: slot = 4; break;
      case Protocol::kDx: slot = 5; break;
      case Protocol::kRcp: slot = 6; break;
      default: break;
    }
    EXPECT_EQ(row.cross_traffic_slot, slot) << row.name;
    const bool unshardable =
        p == Protocol::kDcqcn || p == Protocol::kTimely ||
        p == Protocol::kSird || p == Protocol::kBfc || p == Protocol::kIdeal;
    EXPECT_EQ(row.unshardable != nullptr, unshardable) << row.name;
    const double share = p == Protocol::kExpressPass        ? 0.50
                         : p == Protocol::kExpressPassNaive ? 0.08
                                                            : 0.0;
    EXPECT_EQ(row.fuzz_share, share) << row.name;
  }
}

TEST(Protocols, QueueCapacityScalesWithRate) {
  EXPECT_EQ(runner::default_queue_capacity(10e9), 384'500u);
  EXPECT_EQ(runner::default_queue_capacity(40e9), 1'538'000u);  // 1.54MB
}

TEST(Protocols, DctcpKScalesWithRate) {
  // K = 65 pkts at 10G, 650 at 100G (paper's Fig 16 parameters).
  EXPECT_EQ(runner::dctcp_k_bytes(10e9), 65u * net::kMaxWireBytes);
  EXPECT_EQ(runner::dctcp_k_bytes(100e9), 650u * net::kMaxWireBytes);
}

TEST(Protocols, LinkConfigSelectsMechanism) {
  const auto dctcp =
      runner::protocol_link_config(Protocol::kDctcp, 10e9, Time::us(1));
  EXPECT_GT(dctcp.data_queue.ecn_threshold_bytes, 0u);
  EXPECT_EQ(dctcp.data_queue.phantom_drain_bps, 0.0);

  const auto hull =
      runner::protocol_link_config(Protocol::kHull, 10e9, Time::us(1));
  EXPECT_EQ(hull.data_queue.ecn_threshold_bytes, 0u);
  EXPECT_NEAR(hull.data_queue.phantom_drain_bps, 9.5e9, 1e6);

  const auto xp =
      runner::protocol_link_config(Protocol::kExpressPass, 10e9, Time::us(1));
  EXPECT_EQ(xp.data_queue.ecn_threshold_bytes, 0u);
  EXPECT_EQ(xp.data_queue.phantom_drain_bps, 0.0);
  EXPECT_EQ(xp.credit_queue_pkts, 8u);
}

// The full per-protocol mechanism matrix: who gets ECN marking, who gets a
// HULL phantom queue, who gets PFC, who gets per-hop flow backpressure, and
// who runs plain drop-tail.
TEST(Protocols, LinkConfigMechanismMatrix) {
  for (const runner::ProtocolInfo& row : runner::protocol_table()) {
    const Protocol p = row.protocol;
    const auto cfg = runner::protocol_link_config(p, 10e9, Time::us(1));
    const bool wants_ecn = p == Protocol::kDctcp || p == Protocol::kDcqcn;
    const bool wants_phantom = p == Protocol::kHull;
    const bool wants_pfc = p == Protocol::kDcqcn || p == Protocol::kTimely;
    EXPECT_EQ(cfg.data_queue.ecn_threshold_bytes > 0, wants_ecn)
        << runner::protocol_name(p);
    EXPECT_EQ(cfg.data_queue.phantom_drain_bps > 0, wants_phantom)
        << runner::protocol_name(p);
    EXPECT_EQ(cfg.pfc, wants_pfc) << runner::protocol_name(p);
    EXPECT_EQ(cfg.hop_backpressure, p == Protocol::kBfc)
        << runner::protocol_name(p);
    // Invariants every protocol shares: the link rate, the propagation
    // delay, and a drop-tail capacity scaled from the paper's 384.5KB.
    EXPECT_EQ(cfg.rate_bps, 10e9) << runner::protocol_name(p);
    EXPECT_EQ(cfg.prop_delay, Time::us(1)) << runner::protocol_name(p);
    EXPECT_EQ(cfg.data_queue.capacity_bytes, 384'500u)
        << runner::protocol_name(p);
  }
}

TEST(Protocols, MakeTransportEnablesRcpOnPorts) {
  sim::Simulator sim(1);
  net::Topology topo(sim);
  const auto link =
      runner::protocol_link_config(Protocol::kRcp, 10e9, Time::us(1));
  auto d = net::build_dumbbell(topo, 1, link, link);
  (void)d;
  auto t = runner::make_transport(Protocol::kRcp, sim, topo, Time::us(100));
  EXPECT_EQ(t->name(), "RCP");
  for (net::Port* p : topo.switch_ports()) {
    ASSERT_NE(p->rcp(), nullptr);
    EXPECT_GT(p->rcp()->rate_bps, 0.0);
  }
}

TEST(Protocols, RcpPortsStampForwardPackets) {
  sim::Simulator sim(1);
  net::Topology topo(sim);
  net::Host& a = topo.add_host();
  net::Host& b = topo.add_host();
  topo.connect(a, b, net::LinkConfig{});
  topo.finalize();
  a.nic().enable_rcp(Time::us(100));

  double stamped = 0.0;
  b.register_flow(1, [&](net::Packet&& p) { stamped = p.rcp_rate_bps; });
  a.send(net::make_data(1, a.id(), b.id(), 0, 100));
  sim.run_until(Time::ms(1));
  EXPECT_GT(stamped, 0.0);
}

TEST(FlowDriver, SchedulesAtStartTime) {
  sim::Simulator sim(1);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(Protocol::kExpressPass, 10e9,
                                                 Time::us(1));
  auto d = net::build_dumbbell(topo, 1, link, link);
  auto t = runner::make_transport(Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  transport::FlowSpec s;
  s.id = 1;
  s.src = d.senders[0];
  s.dst = d.receivers[0];
  s.size_bytes = 10'000;
  s.start_time = Time::ms(5);
  driver.add(s);
  sim.run_until(Time::ms(4));
  EXPECT_EQ(driver.connections()[0]->delivered_bytes(), 0u);
  EXPECT_TRUE(driver.run_to_completion(Time::ms(100)));
  EXPECT_GT(driver.connections()[0]->completion_time(), Time::ms(5));
}

TEST(FlowDriver, CountsAndFctsMatch) {
  sim::Simulator sim(1);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(Protocol::kExpressPass, 10e9,
                                                 Time::us(1));
  auto d = net::build_dumbbell(topo, 4, link, link);
  auto t = runner::make_transport(Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  for (uint32_t i = 0; i < 4; ++i) {
    transport::FlowSpec s;
    s.id = i + 1;
    s.src = d.senders[i];
    s.dst = d.receivers[i];
    s.size_bytes = 50'000 * (i + 1);
    driver.add(s);
  }
  EXPECT_EQ(driver.scheduled(), 4u);
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  EXPECT_EQ(driver.completed(), 4u);
  EXPECT_EQ(driver.fcts().completed(), 4u);
  EXPECT_GT(driver.rates().total_bytes(), 0u);
}

TEST(FlowDriver, RunToCompletionHonorsDeadline) {
  sim::Simulator sim(1);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(Protocol::kExpressPass, 10e9,
                                                 Time::us(1));
  auto d = net::build_dumbbell(topo, 1, link, link);
  auto t = runner::make_transport(Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  transport::FlowSpec s;
  s.id = 1;
  s.src = d.senders[0];
  s.dst = d.receivers[0];
  s.size_bytes = transport::kLongRunning;  // never completes
  driver.add(s);
  EXPECT_FALSE(driver.run_to_completion(Time::ms(3)));
  EXPECT_GE(sim.now(), Time::ms(3));
  driver.stop_all();
  driver.stop_all();  // idempotent
}

}  // namespace
