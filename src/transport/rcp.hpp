// RCP — Rate Control Protocol (Dukkipati 2008).
//
// Switch ports (with enable_rcp) maintain an explicit per-flow rate R
// updated every control interval from utilization and queue; forward-path
// packets carry min(R) which receivers echo in ACKs. Senders pace at the
// echoed rate. A new flow probes with a SYN and starts at the advertised
// rate — the behavior that makes RCP drop packets under flow churn in the
// paper's Fig 15.
#pragma once

#include "transport/window.hpp"

namespace xpass::transport {

struct RcpConfig {
  WindowConfig window;
  RcpConfig() {
    window.pacing = true;
    // No slow start: rate is explicit. The window only bounds the flight.
    window.init_cwnd_pkts = 2.0;
    // RCP's own SYN rate probe *is* the handshake.
    window.handshake = false;
  }
};

class RcpConnection : public WindowConnection {
 public:
  RcpConnection(sim::Simulator& sim, const FlowSpec& spec,
                const RcpConfig& cfg)
      : WindowConnection(sim, spec, cfg.window), cfg_(cfg) {}

  double rate_bps() const { return rate_bps_; }

 protected:
  void begin_sending() override;  // SYN handshake to learn the initial rate
  void on_packet(net::Packet&& p) override;
  void on_ack_hook(const net::Packet& ack, uint64_t newly_acked) override;
  double pace_rate_bps() const override { return rate_bps_; }
  // No data before the first SYN-ACK: with no rate, the pacing gap would be
  // infinite. Until then every RTO resends the probe, with backoff.
  bool awaiting_synack() const override { return rate_bps_ == 0.0; }

 private:
  void adopt_rate(double bps);

  RcpConfig cfg_;
  double rate_bps_ = 0.0;  // 0 until the first SYN-ACK brings a rate
  bool probe_sent_ = false;
};

class RcpTransport : public Transport {
 public:
  explicit RcpTransport(sim::Simulator& sim, RcpConfig cfg = {})
      : sim_(sim), cfg_(cfg) {}
  std::unique_ptr<Connection> create(const FlowSpec& spec) override {
    return std::make_unique<RcpConnection>(sim_, spec, cfg_);
  }
  std::string_view name() const override { return "RCP"; }

 private:
  sim::Simulator& sim_;
  RcpConfig cfg_;
};

}  // namespace xpass::transport
