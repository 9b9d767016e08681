// Protocol registry: one ProtocolInfo row per protocol holding its names,
// link/queue configuration and transport factory (with the paper's
// recommended parameters) and the traits the scenario engine, the checkers
// and the fuzz generator branch on, so every layer sweeps protocols
// uniformly. Adding a protocol is one row plus its transport files.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/expresspass.hpp"
#include "net/topology.hpp"
#include "transport/connection.hpp"

namespace xpass::runner {

enum class Protocol {
  kExpressPass,
  kExpressPassNaive,
  kDctcp,
  kRcp,
  kHull,
  kDx,
  kCubic,
  kBbr,  // model-based (BtlBw x RTprop) baseline for coexistence studies
  // Extension comparators: the PFC-based RDMA status quo (§1's motivation).
  kDcqcn,   // ECN + CNP rate control over PFC-protected links
  kTimely,  // RTT-gradient rate control over PFC-protected links
  // Proactive/backpressure comparators for the three-way shootout:
  kSird,    // sender-informed receiver-driven grant allocation
  kBfc,     // per-hop per-flow backpressure, fixed endpoint window
  // Fig 1's oracle: exact max-min fair shares with perfect pacing.
  kIdeal,
  kCount,  // not a protocol: the number of values above (keep last)
};

using TransportFactory = std::unique_ptr<transport::Transport> (*)(
    sim::Simulator& sim, net::Topology& topo, sim::Time base_rtt,
    const core::ExpressPassConfig* xp);

struct ProtocolInfo {
  Protocol protocol;
  std::string_view name;   // display name: spec JSON, recorder, golden files
  std::string_view alias;  // lowercase CLI name; parse_protocol takes both
  // Turns the shared drop-tail defaults (rate, delay and capacity already
  // set) into the protocol's queue mechanism.
  void (*link_config)(net::LinkConfig& cfg);
  TransportFactory make;  // see make_transport
  // ExpressPass's credit fabric: runs expect zero data loss and register
  // credit telemetry, and credit-scheduled variants share one fabric.
  bool credit_scheduled = false;
  // 0 when the protocol cannot join another protocol's fabric as a flow
  // group (it needs link machinery the primary's fabric does not provide).
  // Otherwise a drop-tail-compatible reactive stack, and this is its
  // 1-based slot in the fuzz generator's cross-traffic draw.
  int cross_traffic_slot = 0;
  // Why the sharded engine cannot run the protocol; null when it can.
  const char* unshardable = nullptr;
  // Probability the fuzz generator draws the protocol outright; rows with 0
  // split the remaining probability evenly.
  double fuzz_share = 0;
};

// Every row, in enum order.
std::span<const ProtocolInfo> protocol_table();
const ProtocolInfo& protocol_info(Protocol p);
inline bool is_credit_scheduled(Protocol p) {
  return protocol_info(p).credit_scheduled;
}

std::string_view protocol_name(Protocol p);
std::optional<Protocol> parse_protocol(std::string_view name);
// Every CLI alias in table order, joined by `sep` (for usage text).
std::string protocol_aliases(std::string_view sep);

// The paper states every buffer/threshold constant at its 10Gbps testbed
// speed; faster links scale them linearly (same number of MTU-times of
// buffering). Every such constant must go through this one helper — the
// queue capacity and the DCTCP K used to each scale independently and could
// drift apart.
double scale_for_rate(double value_at_10g, double rate_bps);
// Switch/NIC data-queue capacity at `rate_bps`, scaled from the paper's
// 384.5KB (250 MTUs) at 10Gbps.
uint64_t default_queue_capacity(double rate_bps);
// DCTCP marking threshold K, scaled from K=65 packets at 10Gbps.
uint64_t dctcp_k_bytes(double rate_bps);

// Link config for `p` on a link of `rate_bps`: drop-tail defaults with the
// protocol's queue mechanism (ECN, phantom queue, PFC, hop backpressure).
net::LinkConfig protocol_link_config(Protocol p, double rate_bps,
                                     sim::Time prop);

// Transport factory. For RCP this also enables per-port RCP state on the
// (already built) topology. `base_rtt` seeds RTOs, RCP's control interval,
// and ExpressPass's feedback update period. `xp` overrides the ExpressPass
// config (naive mode is forced for kExpressPassNaive).
std::unique_ptr<transport::Transport> make_transport(
    Protocol p, sim::Simulator& sim, net::Topology& topo, sim::Time base_rtt,
    const core::ExpressPassConfig* xp = nullptr);

}  // namespace xpass::runner
