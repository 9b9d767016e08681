// Per-protocol behavioral tests: each baseline exhibits its defining
// mechanism on a live simulated path.
#include <gtest/gtest.h>

#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "transport/cubic.hpp"
#include "transport/dctcp.hpp"
#include "transport/dx.hpp"
#include "transport/ideal.hpp"
#include "transport/rcp.hpp"

namespace {

using namespace xpass;
using sim::Time;

struct Env {
  sim::Simulator sim{21};
  net::Topology topo{sim};
  net::Dumbbell d;
  std::unique_ptr<transport::Transport> t;

  Env(runner::Protocol p, size_t pairs = 2) {
    const auto link = runner::protocol_link_config(p, 10e9, Time::us(1));
    d = net::build_dumbbell(topo, pairs, link, link);
    t = runner::make_transport(p, sim, topo, Time::us(100));
  }

  runner::FlowDriver make_driver() { return runner::FlowDriver(sim, *t); }

  transport::FlowSpec spec(uint32_t id, uint64_t bytes,
                           Time start = Time::zero()) {
    transport::FlowSpec s;
    s.id = id;
    s.src = d.senders[(id - 1) % d.senders.size()];
    s.dst = d.receivers[(id - 1) % d.receivers.size()];
    s.size_bytes = bytes;
    s.start_time = start;
    return s;
  }
};

// --- DCTCP ---------------------------------------------------------------

TEST(Dctcp, KeepsQueueNearMarkingThreshold) {
  // Two flows: a single flow at edge rate == bottleneck rate never queues.
  Env env(runner::Protocol::kDctcp);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 25'000'000));
  driver.add(env.spec(2, 25'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  const uint64_t k = runner::dctcp_k_bytes(10e9);
  const uint64_t max_q = env.d.bottleneck->data_queue().stats().max_bytes;
  // Queue is controlled: above zero (it fills to K; slow-start overshoot
  // can spike past it once) but never near capacity.
  EXPECT_GT(max_q, k / 4);
  EXPECT_LT(max_q, runner::default_queue_capacity(10e9) * 7 / 10);
  EXPECT_EQ(env.topo.data_drops(), 0u);
}

TEST(Dctcp, EcnActuallyMarks) {
  Env env(runner::Protocol::kDctcp);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 20'000'000));
  driver.add(env.spec(2, 20'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  EXPECT_GT(env.d.bottleneck->data_queue().stats().ecn_marked, 0u);
}

// --- Cubic ---------------------------------------------------------------

TEST(Cubic, FillsLinkAndExperiencesLoss) {
  Env env(runner::Protocol::kCubic);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 50'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  // Loss-based protocol on drop-tail: it must fill the buffer and drop.
  EXPECT_GT(env.topo.data_drops(), 0u);
  const double gbps = 50e6 * 8.0 / driver.connections()[0]->fct().to_sec();
  EXPECT_GT(gbps / 1e9, 7.0);
}

// --- DX ------------------------------------------------------------------

TEST(Dx, KeepsQueueFarBelowDctcp) {
  Env dx_env(runner::Protocol::kDx);
  auto dx_driver = dx_env.make_driver();
  dx_driver.add(dx_env.spec(1, 30'000'000));
  dx_driver.add(dx_env.spec(2, 30'000'000));
  ASSERT_TRUE(dx_driver.run_to_completion(Time::sec(2)));
  const uint64_t dx_q = dx_env.d.bottleneck->data_queue().stats().max_bytes;

  Env dc_env(runner::Protocol::kDctcp);
  auto dc_driver = dc_env.make_driver();
  dc_driver.add(dc_env.spec(1, 30'000'000));
  dc_driver.add(dc_env.spec(2, 30'000'000));
  ASSERT_TRUE(dc_driver.run_to_completion(Time::sec(2)));
  const uint64_t dc_q = dc_env.d.bottleneck->data_queue().stats().max_bytes;

  EXPECT_LT(dx_q, dc_q);
  EXPECT_EQ(dx_env.topo.data_drops(), 0u);
}

// --- HULL ----------------------------------------------------------------

TEST(Hull, PhantomQueueKeepsRealQueueTiny) {
  Env env(runner::Protocol::kHull);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 20'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  // HULL sacrifices bandwidth for near-zero queues: max queue well under
  // the DCTCP marking threshold.
  EXPECT_LT(env.d.bottleneck->data_queue().stats().max_bytes,
            runner::dctcp_k_bytes(10e9));
  EXPECT_EQ(env.topo.data_drops(), 0u);
}

TEST(Hull, TradesBandwidthForLatency) {
  Env env(runner::Protocol::kHull);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 20'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  const double gbps =
      20e6 * 8.0 / driver.connections()[0]->fct().to_sec() / 1e9;
  EXPECT_LT(gbps, 9.8);  // below line rate (phantom headroom)
  EXPECT_GT(gbps, 6.0);  // but still most of it
}

// --- RCP -----------------------------------------------------------------

TEST(Rcp, AdoptsExplicitRateFromSwitches) {
  Env env(runner::Protocol::kRcp);
  auto driver = env.make_driver();
  driver.add(env.spec(1, 10'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  auto* rcp = dynamic_cast<transport::RcpConnection*>(
      driver.connections()[0].get());
  ASSERT_NE(rcp, nullptr);
  EXPECT_GT(rcp->rate_bps(), 1e9);
  EXPECT_LE(rcp->rate_bps(), 10e9 * 1.01);
}

TEST(Rcp, TwoFlowsShareExplicitRate) {
  Env env(runner::Protocol::kRcp);
  auto driver = env.make_driver();
  driver.add(env.spec(1, transport::kLongRunning));
  driver.add(env.spec(2, transport::kLongRunning));
  env.sim.run_until(Time::ms(20));
  auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(20));
  EXPECT_NEAR(rates[1] / 1e9, rates[2] / 1e9, 1.5);
  EXPECT_GT((rates[1] + rates[2]) / 1e9, 7.0);
  driver.stop_all();
}

// RCP's rate probe (its SYN) and the SYN-ACK carrying the rate are ordinary
// frames and can be lost. The sender resends the probe on its RTO, backing
// off, and sends no data until a rate arrives.
TEST(Rcp, ResendsALostRateProbe) {
  for (const bool lose_synack : {false, true}) {
    Env env(runner::Protocol::kRcp);
    // Drop every non-credit frame on one direction of the path for 35 ms:
    // the probes at 0, 10 and 30 ms (10 ms RTO, doubled per retry) are
    // lost, or their SYN-ACKs are; the fourth, at 70 ms, gets through.
    net::Port& nic = lose_synack ? env.d.receivers[0]->nic()
                                 : env.d.senders[0]->nic();
    net::LinkErrorConfig lossy;
    lossy.data_drop = 1.0;
    nic.set_error_model(lossy, 7);
    env.sim.at(Time::ms(35), [&nic] { nic.clear_error_model(); });
    auto driver = env.make_driver();
    driver.add(env.spec(1, 1'000'000));
    ASSERT_TRUE(driver.run_to_completion(Time::sec(1)))
        << (lose_synack ? "SYN-ACK" : "SYN") << " loss stalled the flow";
    const double fct = driver.fcts().all().max();
    EXPECT_GT(fct, 0.070);  // waited out 10 + 20 + 40 ms of backoff
    EXPECT_LT(fct, 0.080);
    EXPECT_EQ(nic.fault_stats().injected_data_drops, 3u);
  }
}

// --- Ideal oracle --------------------------------------------------------

TEST(Ideal, AssignsMaxMinRatesInstantly) {
  Env env(runner::Protocol::kDctcp);  // link config irrelevant for oracle
  transport::IdealTransport t(env.sim, env.topo, 1.0);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, transport::kLongRunning));
  driver.add(env.spec(2, transport::kLongRunning));
  env.sim.run_until(Time::ms(5));
  auto* c1 =
      dynamic_cast<transport::IdealConnection*>(driver.connections()[0].get());
  auto* c2 =
      dynamic_cast<transport::IdealConnection*>(driver.connections()[1].get());
  EXPECT_NEAR(c1->rate_bps(), 5e9, 1e6);
  EXPECT_NEAR(c2->rate_bps(), 5e9, 1e6);
  driver.stop_all();
}

TEST(Ideal, RatesReallocateOnDeparture) {
  Env env(runner::Protocol::kDctcp);
  transport::IdealTransport t(env.sim, env.topo, 1.0);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, transport::kLongRunning));
  driver.add(env.spec(2, 1'000'000));  // short flow departs
  ASSERT_TRUE(driver.run_to_completion(Time::ms(50)) ||
              driver.completed() == 1);
  env.sim.run_until(env.sim.now() + Time::ms(1));
  auto* c1 =
      dynamic_cast<transport::IdealConnection*>(driver.connections()[0].get());
  EXPECT_NEAR(c1->rate_bps(), 10e9, 1e7);  // got the whole link back
  driver.stop_all();
}

TEST(Ideal, PacedDeliveryCompletesFlows) {
  Env env(runner::Protocol::kDctcp);
  transport::IdealTransport t(env.sim, env.topo, 1.0);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 3'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::ms(100)));
  // 3MB at ~10G ~ 2.5ms.
  EXPECT_LT(driver.connections()[0]->fct(), Time::ms(5));
}

}  // namespace
