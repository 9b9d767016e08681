#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/credit_telemetry.hpp"
#include "exec/sweep_runner.hpp"
#include "net/packet_pool.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "stats/fairness.hpp"
#include "transport/credit_sched.hpp"
#include "transport/window.hpp"
#include "workload/flow_size_dist.hpp"
#include "workload/generators.hpp"

namespace xpbench {

namespace {

namespace net = xpass::net;
namespace sim = xpass::sim;
namespace stats = xpass::stats;
namespace transport = xpass::transport;
namespace wl = xpass::workload;
using Clock = std::chrono::steady_clock;

// Span recorder for one workload run. Not thread-safe: every grid cell gets
// its own, merged after the sweep.
class Tracer {
 public:
  Tracer(Clock::time_point epoch, uint32_t run) : epoch_(epoch), run_(run) {}

  int32_t open(const char* name) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({name, now_ns(), 0, parent, run_});
    stack_.push_back(static_cast<int32_t>(spans.size() - 1));
    return stack_.back();
  }
  void close(int32_t i) {
    spans[static_cast<size_t>(i)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans;

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_;
  uint32_t run_;
  std::vector<int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), i_(t.open(name)) {}
  ~Scope() { t_.close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int32_t i_;
};

// The network a cell's topology spec resolves to (the subset of the
// engine's build step the benchmark's workloads use).
struct Net {
  std::vector<net::Host*> hosts;  // senders / the Poisson pool
  std::vector<net::Host*> peers;  // dumbbell receivers
  std::vector<net::Port*> tor_uplinks;
  double fabric_rate_bps = 0;
};

// The traced path mirrors ScenarioEngine::run for exactly the features the
// workloads use; anything else would silently diverge, so refuse it.
void check_supported(const runner::ScenarioSpec& s) {
  const auto& ts = s.topology;
  const bool topo_ok = ts.kind == runner::TopologyKind::kDumbbell ||
                       ts.kind == runner::TopologyKind::kClos;
  const bool traffic_ok = s.traffic.kind == runner::TrafficKind::kPairwise ||
                          s.traffic.kind == runner::TrafficKind::kPoisson;
  if (!topo_ok || !traffic_ok || ts.credit_queue_pkts ||
      ts.host_credit_shaper_noise || ts.packet_spraying ||
      ts.link_jitter > sim::Time::zero() || !s.flow_groups.empty() ||
      s.stop.kind == runner::StopKind::kRunFor || s.faults.any() ||
      s.check_invariants || s.heap_only_events || s.budget || s.shards > 1 ||
      s.telemetry.sample_interval > sim::Time::zero()) {
    throw std::invalid_argument("traced path does not mirror spec " + s.name);
  }
}

Net build_net(const runner::ScenarioSpec& spec, net::Topology& topo) {
  const auto& ts = spec.topology;
  Net n;
  n.fabric_rate_bps =
      ts.fabric_rate_bps > 0 ? ts.fabric_rate_bps : ts.host_rate_bps;
  const sim::Time fabric_prop =
      ts.fabric_prop > sim::Time::zero() ? ts.fabric_prop : ts.host_prop;
  const net::LinkConfig host_cfg =
      runner::protocol_link_config(spec.protocol, ts.host_rate_bps,
                                   ts.host_prop);
  const net::LinkConfig fabric_cfg = runner::protocol_link_config(
      spec.protocol, n.fabric_rate_bps, fabric_prop);
  if (ts.kind == runner::TopologyKind::kDumbbell) {
    auto d = net::build_dumbbell(topo, ts.scale, host_cfg, fabric_cfg);
    n.hosts = d.senders;
    n.peers = d.receivers;
  } else {
    auto c = net::build_clos(topo, ts.clos.n_core, ts.clos.pods,
                             ts.clos.aggr_per_pod, ts.clos.tor_per_pod,
                             ts.clos.hosts_per_tor, host_cfg, fabric_cfg);
    n.hosts = c.hosts;
    n.tor_uplinks = c.tor_uplinks;
  }
  if (ts.host_delay != runner::HostDelay::kNone) {
    const net::HostDelayModel m = ts.host_delay == runner::HostDelay::kTestbed
                                      ? net::HostDelayModel::testbed()
                                      : net::HostDelayModel::hardware();
    for (net::Host* h : topo.hosts()) h->set_delay_model(m);
  }
  return n;
}

// The flow list, drawing from the scenario RNG in the engine's order.
std::vector<transport::FlowSpec> gen_flows(const runner::ScenarioSpec& spec,
                                           const Net& n, sim::Simulator& s) {
  const runner::TrafficSpec& tr = spec.traffic;
  std::vector<transport::FlowSpec> flows;
  if (tr.kind == runner::TrafficKind::kPairwise) {
    for (size_t i = 0; i < tr.flows; ++i) {
      transport::FlowSpec f;
      f.id = tr.flow_id_salt + static_cast<uint32_t>(i + 1);
      f.src = n.hosts[i % n.hosts.size()];
      f.dst = n.peers[i % n.peers.size()];
      f.size_bytes = tr.bytes;
      if (tr.start_spread_sec > 0) {
        f.start_time =
            sim::Time::seconds(s.rng().uniform(0.0, tr.start_spread_sec));
      }
      flows.push_back(f);
    }
    return flows;
  }
  const auto dist = wl::FlowSizeDist::make(tr.workload);
  std::vector<net::Host*> pool = n.hosts;
  pool.insert(pool.end(), n.peers.begin(), n.peers.end());
  const double capacity =
      tr.capacity_bps ? *tr.capacity_bps
      : !n.tor_uplinks.empty()
          ? static_cast<double>(n.tor_uplinks.size()) * n.fabric_rate_bps
          : static_cast<double>(pool.size()) * spec.topology.host_rate_bps /
                3.0;
  const double lambda = wl::lambda_for_load(tr.load, capacity, dist.mean());
  return wl::poisson_flows(s.rng(), pool, dist, lambda, tr.flows,
                           sim::Time::zero(), tr.flow_id_salt + 1);
}

std::vector<net::Port*> all_ports(net::Topology& topo) {
  std::vector<net::Port*> ports;
  for (size_t id = 0; id < topo.num_nodes(); ++id) {
    net::Node& node = topo.node(id);
    for (size_t i = 0; i < node.num_ports(); ++i) {
      ports.push_back(&node.port(i));
    }
  }
  return ports;
}

// One cell, traced. Construction order, RNG draws, the 1 ms run_until
// slicing of the completion loop and the end-of-run measurement follow
// ScenarioEngine::run, so the outputs must match the engine's exactly.
CellOut trace_cell(const runner::ScenarioSpec& spec, Tracer& tr,
                   LayerCounts& k) {
  check_supported(spec);
  Scope root(tr, "runner.cell");
  auto s = std::make_unique<sim::Simulator>(spec.seed);
  auto topo = std::make_unique<net::Topology>(*s);
  Net n;
  {
    Scope sp(tr, "net.build");
    n = build_net(spec, *topo);
  }
  std::unique_ptr<transport::Transport> t;
  {
    Scope sp(tr, "runner.make_transport");
    t = runner::make_transport(spec.protocol, *s, *topo, spec.base_rtt,
                               spec.xp ? &*spec.xp : nullptr);
  }
  auto driver = std::make_unique<runner::FlowDriver>(*s, *t);
  std::vector<transport::FlowSpec> flows;
  {
    Scope sp(tr, "workload.gen");
    flows = gen_flows(spec, n, *s);
  }
  for (const auto& f : flows) {
    if (f.size_bytes != transport::kLongRunning) {
      k.offered_bytes += f.size_bytes;
    }
  }
  {
    Scope sp(tr, "runner.flow_add");
    for (const auto& f : flows) driver->add(f);
  }
  // The engine registers the same probes before running; they are pulled
  // only at collection time.
  stats::Recorder rec;
  topo->register_telemetry(rec);
  driver->register_telemetry(rec);
  const bool xp = spec.protocol == runner::Protocol::kExpressPass;
  if (xp) {
    xpass::core::register_credit_telemetry(rec, *topo, driver->connections());
  }

  const std::vector<net::Port*> ports = all_ports(*topo);
  net::PacketPool& pool = net::PacketPool::local();
  auto run_slice = [&](sim::Time until) {
    {
      Scope sp(tr, "sim.run_until");
      s->run_until(until);
    }
    k.peak_pending = std::max<uint64_t>(k.peak_pending, s->pending());
    k.pool_peak_packets =
        std::max<uint64_t>(k.pool_peak_packets, pool.outstanding());
    uint64_t bp = 0;
    for (const net::Port* p : ports) bp += p->bp_tracked_flows();
    k.bp_peak_flows = std::max(k.bp_peak_flows, bp);
  };
  const sim::Time chunk = sim::Time::ms(1);
  auto run_to = [&](sim::Time until) {
    while (s->now() < until) run_slice(std::min(s->now() + chunk, until));
  };

  std::vector<std::pair<uint32_t, double>> rates;
  if (spec.stop.kind == runner::StopKind::kWindow) {
    run_to(spec.stop.warmup);
    driver->rates().snapshot_rates_ordered(spec.stop.warmup);  // reset
    run_to(spec.stop.warmup + spec.stop.window);
  } else {
    // FlowDriver::run_to_completion's settle loop, one span per slice.
    const sim::Time deadline = spec.stop.horizon;
    while (s->now() < deadline &&
           driver->completed() + driver->failed() < driver->scheduled()) {
      run_slice(std::min(s->now() + chunk, deadline));
    }
  }

  CellOut out;
  {
    Scope sp(tr, "stats.collect");
    rates = driver->rates().snapshot_rates_ordered(
        spec.stop.kind == runner::StopKind::kWindow ? spec.stop.window
                                                    : s->now());
    std::vector<double> vals;
    vals.reserve(rates.size());
    double sum = 0;
    for (const auto& [id, r] : rates) {
      (void)id;
      vals.push_back(r);
      sum += r;
    }
    out.name = spec.name;
    out.scheduled = driver->scheduled();
    out.completed = driver->completed();
    out.data_drops = topo->data_drops();
    out.goodput_bps = sum;
    out.jain = stats::jain_index(vals);
    out.starved = count_starved(rates, sum);
    std::sort(rates.begin(), rates.end());
    const stats::FctCollector fcts = driver->fcts();
    out.fcts_sorted = fcts.all().sorted();
    out.sim_end_ms = s->now().to_sec() * 1e3;
    out.digest = cell_digest(out, rates, topo->credit_drops());
    rec.set("time.end_sec", s->now().to_sec());
    rec.set("goodput.sum_bps", sum);
    rec.set("fairness.jain", out.jain);
    if (fcts.completed() > 0) {
      rec.set("fct.count", static_cast<double>(fcts.completed()));
      rec.set("fct.avg_sec", fcts.all().mean());
      rec.set("fct.p50_sec", fcts.all().percentile(0.5));
      rec.set("fct.p99_sec", fcts.all().percentile(0.99));
    }
    rec.detach();
  }

  // Layer counters, read from outside each layer.
  const sim::EventQueue& q = s->events();
  k.events += q.fired();
  k.cancelled += q.cancelled();
  k.wheel_scheduled += q.wheel_scheduled();
  k.heap_scheduled += q.heap_scheduled();
  k.event_slots = std::max<uint64_t>(k.event_slots, q.pool_slots());
  for (const net::Port* p : ports) {
    k.packet_hops += p->tx_packets();
    k.kick_events += p->kick_events();
    k.retry_events += p->retry_events();
    k.flow_pause_events += p->flow_pause_events();
  }
  k.credit_drops += topo->credit_drops();
  k.data_drops += topo->data_drops();
  for (const auto& c : driver->connections()) {
    if (auto* x = dynamic_cast<const xpass::core::ExpressPassConnection*>(
            c.get())) {
      k.credits_sent += x->credits_sent();
      k.credits_lost += x->credits_detected_lost();
      k.credit_stops += x->credit_stops_sent();
    } else if (auto* w = dynamic_cast<const transport::WindowConnection*>(
                   c.get())) {
      k.retransmits += w->retransmits();
      k.timeouts += w->timeouts();
    }
  }
  if (xp) {
    const auto ledger =
        xpass::core::credit_ledger(*topo, driver->connections());
    k.credits_received += ledger.received;
    k.credits_wasted += ledger.wasted;
  } else if (auto* acct =
                 dynamic_cast<const transport::GrantAccounting*>(t.get())) {
    const transport::GrantWaste gw = acct->grant_waste();
    k.grants_issued += gw.issued;
    k.grants_wasted += gw.wasted;
  }
  k.flows_scheduled += out.scheduled;
  k.flows_completed += out.completed;
  k.fct_samples += out.fcts_sorted.size();

  {
    Scope sp(tr, "runner.teardown");
    driver->stop_all();
    driver.reset();
    t.reset();
    topo.reset();
    s.reset();
  }
  return out;
}

double ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void LayerCounts::merge(const LayerCounts& o) {
  events += o.events;
  cancelled += o.cancelled;
  wheel_scheduled += o.wheel_scheduled;
  heap_scheduled += o.heap_scheduled;
  peak_pending = std::max(peak_pending, o.peak_pending);
  event_slots = std::max(event_slots, o.event_slots);
  packet_hops += o.packet_hops;
  kick_events += o.kick_events;
  retry_events += o.retry_events;
  credit_drops += o.credit_drops;
  data_drops += o.data_drops;
  flow_pause_events += o.flow_pause_events;
  bp_peak_flows = std::max(bp_peak_flows, o.bp_peak_flows);
  pool_peak_packets = std::max(pool_peak_packets, o.pool_peak_packets);
  credits_sent += o.credits_sent;
  credits_received += o.credits_received;
  credits_wasted += o.credits_wasted;
  credits_lost += o.credits_lost;
  credit_stops += o.credit_stops;
  retransmits += o.retransmits;
  timeouts += o.timeouts;
  grants_issued += o.grants_issued;
  grants_wasted += o.grants_wasted;
  offered_bytes += o.offered_bytes;
  flows_scheduled += o.flows_scheduled;
  flows_completed += o.flows_completed;
  fct_samples += o.fct_samples;
}

TracedRun run_traced(const Workload& w) {
  const Clock::time_point epoch = Clock::now();
  TracedRun r;
  r.cells.resize(w.cells.size());
  std::vector<Tracer> tracers;
  std::vector<LayerCounts> counts(w.cells.size());
  for (size_t i = 0; i < w.cells.size(); ++i) {
    tracers.emplace_back(epoch, static_cast<uint32_t>(i));
  }
  Tracer top(epoch, static_cast<uint32_t>(w.cells.size()));
  {
    Scope sp(top, "exec.map");
    xpass::exec::SweepRunner pool(w.grid ? w.jobs : 1);
    r.workers = std::min(pool.jobs(), w.cells.size());
    pool.for_each(w.cells.size(), [&](size_t i) {
      r.cells[i] = trace_cell(w.cells[i].spec, tracers[i], counts[i]);
    });
  }
  r.wall_s = static_cast<double>(top.spans[0].end_ns - top.spans[0].start_ns) /
             1e9;
  // Cell roots hang under the sweep span.
  r.spans = std::move(top.spans);
  for (size_t i = 0; i < tracers.size(); ++i) {
    const int32_t base = static_cast<int32_t>(r.spans.size());
    for (Span sp : tracers[i].spans) {
      sp.parent = sp.parent < 0 ? 0 : sp.parent + base;
      r.spans.push_back(sp);
    }
    r.counts.merge(counts[i]);
  }
  return r;
}

std::vector<std::pair<std::string, double>> layer_metrics(const TracedRun& r) {
  const std::vector<Span>& sp = r.spans;
  std::vector<int64_t> child_ns(sp.size(), 0);
  for (const Span& s : sp) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self_s;
  double busy = 0, critical = 0, wait = 0;
  for (size_t i = 0; i < sp.size(); ++i) {
    const int64_t dur = sp[i].end_ns - sp[i].start_ns;
    self_s[sp[i].name] += static_cast<double>(dur - child_ns[i]) / 1e9;
    if (std::string(sp[i].name) == "runner.cell") {
      busy += static_cast<double>(dur) / 1e9;
      critical = std::max(critical, static_cast<double>(dur) / 1e9);
      wait += static_cast<double>(sp[i].start_ns - sp[0].start_ns) / 1e9;
    }
  }
  const LayerCounts& k = r.counts;
  const double sim_s = self_s["sim.run_until"];
  return {
      {"sim.events", static_cast<double>(k.events)},
      {"sim.events_per_hop", ratio(k.events, k.packet_hops)},
      {"sim.ns_per_event",
       k.events > 0 ? sim_s * 1e9 / static_cast<double>(k.events) : 0.0},
      {"sim.self_s", sim_s},
      {"sim.cancelled", static_cast<double>(k.cancelled)},
      {"sim.wheel_share",
       ratio(k.wheel_scheduled, k.wheel_scheduled + k.heap_scheduled)},
      {"sim.peak_pending", static_cast<double>(k.peak_pending)},
      {"sim.event_slots", static_cast<double>(k.event_slots)},
      {"net.build_s", self_s["net.build"]},
      {"net.packet_hops", static_cast<double>(k.packet_hops)},
      {"net.kick_events", static_cast<double>(k.kick_events)},
      {"net.retry_events", static_cast<double>(k.retry_events)},
      {"net.credit_drops", static_cast<double>(k.credit_drops)},
      {"net.credit_drop_ratio", ratio(k.credit_drops, k.credits_sent)},
      {"net.data_drops", static_cast<double>(k.data_drops)},
      {"net.flow_pause_events", static_cast<double>(k.flow_pause_events)},
      {"net.bp_peak_flows", static_cast<double>(k.bp_peak_flows)},
      {"net.pool_peak_packets", static_cast<double>(k.pool_peak_packets)},
      {"core.credits_sent", static_cast<double>(k.credits_sent)},
      {"core.credit_waste_ratio", ratio(k.credits_wasted, k.credits_received)},
      {"core.credits_lost", static_cast<double>(k.credits_lost)},
      {"core.credit_stops", static_cast<double>(k.credit_stops)},
      {"transport.retransmits", static_cast<double>(k.retransmits)},
      {"transport.timeouts", static_cast<double>(k.timeouts)},
      {"transport.grant_waste_ratio", ratio(k.grants_wasted, k.grants_issued)},
      {"runner.flow_setup_s",
       self_s["runner.make_transport"] + self_s["runner.flow_add"]},
      {"runner.teardown_s", self_s["runner.teardown"]},
      {"runner.harness_s", self_s["runner.cell"]},
      {"runner.flows_scheduled", static_cast<double>(k.flows_scheduled)},
      {"runner.flows_completed", static_cast<double>(k.flows_completed)},
      {"workload.gen_s", self_s["workload.gen"]},
      {"workload.offered_bytes", static_cast<double>(k.offered_bytes)},
      {"stats.collect_s", self_s["stats.collect"]},
      {"stats.fct_samples", static_cast<double>(k.fct_samples)},
      {"exec.task_busy_s", busy},
      {"exec.critical_task_s", critical},
      {"exec.queue_wait_s", wait},
      {"exec.worker_util",
       r.wall_s > 0 ? busy / (static_cast<double>(r.workers) * r.wall_s)
                    : 0.0},
      {"trace.spans", static_cast<double>(sp.size())},
  };
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"name\": " + json_str(s.name) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.run) +
           ", \"ts\": " + json_num(static_cast<double>(s.start_ns) / 1e3) +
           ", \"dur\": " +
           json_num(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"run\": " + std::to_string(s.run) + "}}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

}  // namespace xpbench
