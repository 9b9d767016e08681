#include "runner/protocols.hpp"

#include <algorithm>
#include <cassert>

#include "transport/bbr.hpp"
#include "transport/bfc.hpp"
#include "transport/cubic.hpp"
#include "transport/dcqcn.hpp"
#include "transport/dctcp.hpp"
#include "transport/dx.hpp"
#include "transport/hull.hpp"
#include "transport/ideal.hpp"
#include "transport/rcp.hpp"
#include "transport/sird.hpp"
#include "transport/timely.hpp"

namespace xpass::runner {

namespace {

using TransportPtr = std::unique_ptr<transport::Transport>;

// --- link configs ---------------------------------------------------------

void drop_tail(net::LinkConfig&) {}

void ecn_marking(net::LinkConfig& cfg) {
  cfg.data_queue.ecn_threshold_bytes = dctcp_k_bytes(cfg.rate_bps);
}

void phantom_queue(net::LinkConfig& cfg) {
  cfg.data_queue = transport::hull_queue_config(cfg.data_queue, cfg.rate_bps);
}

void pfc(net::LinkConfig& cfg) {
  cfg.pfc = true;
  cfg.pfc_pause_bytes = cfg.data_queue.capacity_bytes / 2;
  cfg.pfc_resume_bytes = cfg.data_queue.capacity_bytes / 4;
}

// ECN marking plus PFC: RoCE-style lossless fabric.
void ecn_pfc(net::LinkConfig& cfg) {
  ecn_marking(cfg);
  pfc(cfg);
}

// The congestion control *is* the fabric: per-flow queues with flow-granular
// pause one hop upstream (defaults in net::LinkConfig).
void hop_backpressure(net::LinkConfig& cfg) { cfg.hop_backpressure = true; }

// --- transport factories --------------------------------------------------

double host_rate(net::Topology& topo) {
  return topo.hosts().empty() ? 10e9
                              : topo.hosts().front()->nic().config().rate_bps;
}

template <bool kNaive>
TransportPtr make_expresspass(sim::Simulator& sim, net::Topology&,
                              sim::Time base_rtt,
                              const core::ExpressPassConfig* xp) {
  core::ExpressPassConfig cfg = xp != nullptr ? *xp : core::ExpressPassConfig{};
  cfg.update_period = base_rtt;
  if (kNaive) cfg.naive = true;
  return std::make_unique<core::ExpressPassTransport>(sim, cfg);
}

// Window-based stacks whose only fabric-dependent parameter is the RTO seed.
template <typename T, typename Config>
TransportPtr make_windowed(sim::Simulator& sim, net::Topology&,
                           sim::Time base_rtt, const core::ExpressPassConfig*) {
  Config cfg;
  cfg.window.base_rtt = base_rtt;
  return std::make_unique<T>(sim, cfg);
}

TransportPtr make_rcp(sim::Simulator& sim, net::Topology& topo,
                      sim::Time base_rtt, const core::ExpressPassConfig* xp) {
  topo.enable_rcp(base_rtt);
  return make_windowed<transport::RcpTransport, transport::RcpConfig>(
      sim, topo, base_rtt, xp);
}

TransportPtr make_hull(sim::Simulator& sim, net::Topology&, sim::Time base_rtt,
                       const core::ExpressPassConfig*) {
  transport::HullConfig cfg;
  cfg.dctcp.window.base_rtt = base_rtt;
  cfg.dctcp.window.pacing = true;
  return std::make_unique<transport::HullTransport>(sim, cfg);
}

TransportPtr make_timely(sim::Simulator& sim, net::Topology&,
                         sim::Time base_rtt, const core::ExpressPassConfig*) {
  transport::TimelyConfig cfg;
  cfg.window.base_rtt = base_rtt;
  // Scale the delay thresholds to the fabric's base RTT.
  cfg.t_low = base_rtt * 1.1;
  cfg.t_high = base_rtt * 3.0;
  return std::make_unique<transport::TimelyTransport>(sim, cfg);
}

TransportPtr make_sird(sim::Simulator& sim, net::Topology& topo,
                       sim::Time base_rtt, const core::ExpressPassConfig*) {
  transport::SirdConfig cfg;
  // Solicitation window ~1 fabric BDP, liveness probe one base RTT — the
  // same period granularity ExpressPass's feedback loop uses.
  const double bdp_bytes = host_rate(topo) * base_rtt.to_sec() / 8.0;
  cfg.solicitation_bytes = std::max<uint64_t>(
      4 * net::kMssBytes, static_cast<uint64_t>(bdp_bytes));
  cfg.probe_period = base_rtt;
  return std::make_unique<transport::SirdTransport>(sim, cfg);
}

TransportPtr make_bfc(sim::Simulator& sim, net::Topology& topo,
                      sim::Time base_rtt, const core::ExpressPassConfig*) {
  transport::BfcConfig cfg;
  cfg.window.base_rtt = base_rtt;
  const double bdp_pkts =
      host_rate(topo) * base_rtt.to_sec() / 8.0 / net::kMaxWireBytes;
  const uint32_t w =
      std::max(1u, static_cast<uint32_t>(cfg.bdp_multiplier * bdp_pkts));
  // Fixed window: no slow start, no congestion response.
  cfg.window.init_cwnd_pkts = w;
  cfg.window.min_cwnd_pkts = w;
  cfg.window.max_cwnd_pkts = w;
  return std::make_unique<transport::BfcTransport>(sim, cfg);
}

TransportPtr make_ideal(sim::Simulator& sim, net::Topology& topo, sim::Time,
                        const core::ExpressPassConfig*) {
  return std::make_unique<transport::IdealTransport>(sim, topo, 1.0);
}

// --- the table ------------------------------------------------------------

constexpr const char* kPfcUnshardable =
    "PFC-based protocols backpressure across link boundaries";

constexpr ProtocolInfo kTable[] = {
    {.protocol = Protocol::kExpressPass, .name = "ExpressPass",
     .alias = "expresspass", .link_config = drop_tail,
     .make = make_expresspass<false>, .credit_scheduled = true,
     .fuzz_share = 0.50},
    {.protocol = Protocol::kExpressPassNaive, .name = "ExpressPass-naive",
     .alias = "naive", .link_config = drop_tail,
     .make = make_expresspass<true>, .credit_scheduled = true,
     .fuzz_share = 0.08},
    {.protocol = Protocol::kDctcp, .name = "DCTCP", .alias = "dctcp",
     .link_config = ecn_marking,
     .make = make_windowed<transport::DctcpTransport, transport::DctcpConfig>,
     .cross_traffic_slot = 2},
    {.protocol = Protocol::kRcp, .name = "RCP", .alias = "rcp",
     .link_config = drop_tail, .make = make_rcp, .cross_traffic_slot = 6},
    {.protocol = Protocol::kHull, .name = "HULL", .alias = "hull",
     .link_config = phantom_queue, .make = make_hull},
    {.protocol = Protocol::kDx, .name = "DX", .alias = "dx",
     .link_config = drop_tail,
     .make = make_windowed<transport::DxTransport, transport::DxConfig>,
     .cross_traffic_slot = 5},
    {.protocol = Protocol::kCubic, .name = "Cubic", .alias = "cubic",
     .link_config = drop_tail,
     .make = make_windowed<transport::CubicTransport, transport::CubicConfig>,
     .cross_traffic_slot = 1},
    {.protocol = Protocol::kBbr, .name = "BBR", .alias = "bbr",
     .link_config = drop_tail,
     .make = make_windowed<transport::BbrTransport, transport::BbrConfig>,
     .cross_traffic_slot = 3},
    {.protocol = Protocol::kDcqcn, .name = "DCQCN", .alias = "dcqcn",
     .link_config = ecn_pfc,
     .make = make_windowed<transport::DcqcnTransport, transport::DcqcnConfig>,
     .unshardable = kPfcUnshardable},
    {.protocol = Protocol::kTimely, .name = "TIMELY", .alias = "timely",
     .link_config = pfc, .make = make_timely, .cross_traffic_slot = 4,
     .unshardable = kPfcUnshardable},
    {.protocol = Protocol::kSird, .name = "SIRD", .alias = "sird",
     .link_config = drop_tail, .make = make_sird,
     .unshardable =
         "SIRD's per-receiver grant allocator is cross-flow shared state"},
    {.protocol = Protocol::kBfc, .name = "BFC", .alias = "bfc",
     .link_config = hop_backpressure, .make = make_bfc,
     .unshardable = "BFC's per-hop flow backpressure mutates upstream ports "
                    "across the cut"},
    {.protocol = Protocol::kIdeal, .name = "Ideal", .alias = "ideal",
     .link_config = drop_tail, .make = make_ideal,
     .unshardable = "kIdeal's central max-min oracle is global state"},
};

constexpr bool one_row_per_value_in_enum_order() {
  if (std::size(kTable) != static_cast<size_t>(Protocol::kCount)) return false;
  for (size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].protocol != static_cast<Protocol>(i)) return false;
  }
  return true;
}
static_assert(one_row_per_value_in_enum_order(),
              "kTable needs exactly one row per Protocol value, in enum order");

}  // namespace

std::span<const ProtocolInfo> protocol_table() { return kTable; }

const ProtocolInfo& protocol_info(Protocol p) {
  assert(p < Protocol::kCount);
  return kTable[static_cast<size_t>(p)];
}

std::string_view protocol_name(Protocol p) { return protocol_info(p).name; }

std::optional<Protocol> parse_protocol(std::string_view name) {
  for (const ProtocolInfo& row : kTable) {
    if (name == row.name || name == row.alias) return row.protocol;
  }
  return std::nullopt;
}

std::string protocol_aliases(std::string_view sep) {
  std::string out;
  for (const ProtocolInfo& row : kTable) {
    if (!out.empty()) out += sep;
    out += row.alias;
  }
  return out;
}

double scale_for_rate(double value_at_10g, double rate_bps) {
  return value_at_10g * rate_bps / 10e9;
}

uint64_t default_queue_capacity(double rate_bps) {
  // 384.5KB = 250 x 1538B MTUs.
  return static_cast<uint64_t>(scale_for_rate(384'500.0, rate_bps));
}

uint64_t dctcp_k_bytes(double rate_bps) {
  return static_cast<uint64_t>(
      scale_for_rate(65.0 * net::kMaxWireBytes, rate_bps));
}

net::LinkConfig protocol_link_config(Protocol p, double rate_bps,
                                     sim::Time prop) {
  net::LinkConfig cfg;
  cfg.rate_bps = rate_bps;
  cfg.prop_delay = prop;
  cfg.data_queue.capacity_bytes = default_queue_capacity(rate_bps);
  protocol_info(p).link_config(cfg);
  return cfg;
}

std::unique_ptr<transport::Transport> make_transport(
    Protocol p, sim::Simulator& sim, net::Topology& topo, sim::Time base_rtt,
    const core::ExpressPassConfig* xp) {
  return protocol_info(p).make(sim, topo, base_rtt, xp);
}

}  // namespace xpass::runner
