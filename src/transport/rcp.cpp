#include "transport/rcp.hpp"

#include <algorithm>

namespace xpass::transport {

using net::Packet;
using net::PktType;

void RcpConnection::begin_sending() {
  exit_slow_start();
  // A second call is an RTO retry: the probe or its SYN-ACK was lost.
  if (probe_sent_) back_off_rto();
  probe_sent_ = true;
  Packet syn = net::make_control(PktType::kSyn, spec().id, spec().src->id(),
                                 spec().dst->id());
  syn.ts = sim_.now();
  spec().src->send(std::move(syn));
  arm_rto();
}

void RcpConnection::on_packet(Packet&& p) {
  if (p.type == PktType::kSyn) {
    // Receiver: echo the advertised rate collected along the forward path.
    Packet synack = net::make_control(PktType::kSynAck, spec().id,
                                      spec().dst->id(), spec().src->id());
    synack.rcp_rate_bps = p.rcp_rate_bps;
    synack.ts = p.ts;
    spec().dst->send(std::move(synack));
    return;
  }
  if (p.type == PktType::kSynAck) {
    // A duplicate SYN-ACK (answering a resent probe) only adopts the rate.
    const bool first = awaiting_synack();
    adopt_rate(p.rcp_rate_bps);
    if (first) WindowConnection::begin_sending();
    return;
  }
  WindowConnection::on_packet(std::move(p));
}

void RcpConnection::on_ack_hook(const Packet& ack, uint64_t newly_acked) {
  (void)newly_acked;
  if (ack.rcp_rate_bps > 0.0) adopt_rate(ack.rcp_rate_bps);
}

void RcpConnection::adopt_rate(double bps) {
  if (bps <= 0.0) bps = 1e6;  // defensive floor
  rate_bps_ = bps;
  // Flight bound: 2x the rate-delay product so pacing, not the window, is
  // the limiting mechanism.
  const double bdp_pkts =
      rate_bps_ * std::max(srtt().to_sec(), config().base_rtt.to_sec()) /
      (8.0 * config().mss);
  set_cwnd(std::max(2.0, 2.0 * bdp_pkts));
}

}  // namespace xpass::transport
