#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "net/packet.hpp"
#include "stats/percentile.hpp"
#include "workload/flow_size_dist.hpp"

namespace xpbench {

namespace {

using runner::Protocol;
using xpass::sim::Time;
using xpass::workload::WorkloadKind;

// ExpressPass's data ceiling on a link: one MTU of data per credit cycle.
double xp_ceiling_bps(double link_bps) {
  return link_bps * static_cast<double>(xpass::net::kMaxWireBytes) /
         static_cast<double>(xpass::net::kCreditCycleBytes);
}

// Fig 15's cell: long-running flows on a 10G dumbbell, flow starts spread
// over 5 ms, goodput measured over a post-warmup window.
Cell dumbbell_cell(size_t flows, uint64_t seed, Time warmup, Time window) {
  Cell c;
  runner::ScenarioSpec& s = c.spec;
  s.name = "dumbbell/ExpressPass/" + std::to_string(flows);
  s.seed = seed;
  s.topology.kind = runner::TopologyKind::kDumbbell;
  s.topology.scale = flows;
  s.protocol = Protocol::kExpressPass;
  s.traffic.kind = runner::TrafficKind::kPairwise;
  s.traffic.flows = flows;
  s.traffic.start_spread_sec = 5e-3;
  s.stop = runner::StopSpec::measure_window(warmup, window);
  c.expect.zero_data_drops = true;
  c.expect.min_goodput_bps = 0.9 * xp_ceiling_bps(s.topology.host_rate_bps);
  return c;
}

// §6.3's cell: the quarter-scale oversubscribed Clos (10G hosts, 40G
// fabric, 4 us links, testbed host delay) under Poisson arrivals drawn from
// a Table-2 size distribution at ToR-uplink load 0.6, run to completion
// with a 30 s simulated deadline. ExpressPass uses alpha = w_init = 1/16.
Cell clos_cell(WorkloadKind kind, Protocol proto, size_t flows,
               uint64_t seed) {
  Cell c;
  runner::ScenarioSpec& s = c.spec;
  s.name = "clos/" + std::string(xpass::workload::workload_name(kind)) + "/" +
           std::string(runner::protocol_name(proto));
  s.seed = seed;
  s.topology.kind = runner::TopologyKind::kClos;
  s.topology.clos = runner::clos_scale(false);
  s.topology.host_rate_bps = 10e9;
  s.topology.fabric_rate_bps = 40e9;
  s.topology.host_prop = Time::us(4);
  s.topology.fabric_prop = Time::us(4);
  s.topology.host_delay = runner::HostDelay::kTestbed;
  s.protocol = proto;
  if (proto == Protocol::kExpressPass) {
    s.xp.emplace();
    s.xp->alpha_init = 1.0 / 16;
    s.xp->w_init = 1.0 / 16;
  }
  s.traffic.kind = runner::TrafficKind::kPoisson;
  s.traffic.workload = kind;
  s.traffic.load = 0.6;
  s.traffic.flows = flows;
  s.stop = runner::StopSpec::completion(Time::sec(30));
  c.expect.all_complete = proto == Protocol::kExpressPass ||
                          proto == Protocol::kSird ||
                          proto == Protocol::kDctcp;
  c.expect.zero_data_drops = proto == Protocol::kExpressPass;
  return c;
}

uint64_t fnv(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
template <typename T>
uint64_t fnv(uint64_t h, T v) {
  return fnv(h, &v, sizeof v);
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace

size_t count_starved(const std::vector<std::pair<uint32_t, double>>& rates,
                     double sum_bps) {
  if (rates.empty()) return 0;
  const double floor = 0.05 * sum_bps / static_cast<double>(rates.size());
  size_t n = 0;
  for (const auto& [id, r] : rates) {
    (void)id;
    n += r < floor ? 1 : 0;
  }
  return n;
}

Workload make_workload(const std::string& name, uint64_t seed, bool quick) {
  Workload w;
  w.name = name;
  if (name == "dumbbell_xp_1024") {
    w.cells.push_back(quick ? dumbbell_cell(16, seed, Time::ms(5), Time::ms(5))
                            : dumbbell_cell(1024, seed, Time::ms(10),
                                            Time::ms(20)));
  } else if (name == "clos_websearch_xp") {
    w.cells.push_back(clos_cell(WorkloadKind::kWebSearch,
                                Protocol::kExpressPass, quick ? 40 : 500,
                                seed));
  } else if (name == "clos_webserver_shootout") {
    // Fig 19's protocol column, one grid cell each.
    for (Protocol p : {Protocol::kExpressPass, Protocol::kSird,
                       Protocol::kBfc, Protocol::kRcp, Protocol::kDctcp,
                       Protocol::kDx, Protocol::kHull}) {
      w.cells.push_back(
          clos_cell(WorkloadKind::kWebServer, p, quick ? 50 : 4000, seed));
    }
    w.grid = true;
    w.jobs = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Workload setup_only(Workload w) {
  for (Cell& c : w.cells) c.spec.stop = runner::StopSpec::run_for(Time::zero());
  return w;
}

CellOut cell_out(const runner::ScenarioResult& r) {
  CellOut c;
  c.name = r.name;
  c.scheduled = r.scheduled;
  c.completed = r.completed;
  c.data_drops = r.data_drops;
  c.goodput_bps = r.sum_rate_bps;
  c.jain = r.jain;
  c.starved = count_starved(r.flow_rates, r.sum_rate_bps);
  c.fcts_sorted = r.fcts.all().sorted();
  c.sim_end_ms = r.end_time.to_sec() * 1e3;
  c.digest = cell_digest(c, r.flow_rates, r.credit_drops);
  return c;
}

uint64_t cell_digest(const CellOut& c,
                     const std::vector<std::pair<uint32_t, double>>& rates,
                     uint64_t credit_drops) {
  uint64_t h = kFnvBasis;
  h = fnv(h, static_cast<uint64_t>(c.scheduled));
  h = fnv(h, static_cast<uint64_t>(c.completed));
  h = fnv(h, c.data_drops);
  h = fnv(h, credit_drops);
  h = fnv(h, c.sim_end_ms);
  for (const auto& [id, r] : rates) {
    h = fnv(h, id);
    h = fnv(h, r);
  }
  for (double f : c.fcts_sorted) h = fnv(h, f);
  return h;
}

Outputs fold_outputs(const std::vector<CellOut>& cells) {
  Outputs o;
  xpass::stats::Samples fcts;
  uint64_t h = kFnvBasis;
  o.jain = cells.empty() ? 0 : 1.0;
  for (const CellOut& c : cells) {
    o.goodput_gbps += c.goodput_bps / 1e9;
    o.jain = std::min(o.jain, c.jain);
    o.sim_end_ms = std::max(o.sim_end_ms, c.sim_end_ms);
    for (double f : c.fcts_sorted) fcts.add(f);
    h = fnv(h, c.digest);
  }
  o.fct_samples = static_cast<double>(fcts.count());
  o.fct_p50_ms = fcts.percentile(0.5) * 1e3;
  o.fct_p99_ms = fcts.percentile(0.99) * 1e3;
  o.digest = static_cast<double>(h >> 12);
  return o;
}

Verdict judge(const Workload& w, const std::vector<CellOut>& cells) {
  Verdict v;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const Expect& e = w.cells[i].expect;
    const CellOut* c = i < cells.size() ? &cells[i] : nullptr;
    const size_t flows = w.cells[i].spec.traffic.flows;
    v.attempted += flows;
    if (c == nullptr) {
      v.failed += flows;
      v.problems.push_back(w.cells[i].spec.name + ": no result");
      continue;
    }
    const bool window = w.cells[i].spec.stop.kind == runner::StopKind::kWindow;
    v.unfinished += window ? c->starved : c->scheduled - c->completed;
    std::string why;
    if (c->scheduled != flows) {
      why = "scheduled " + std::to_string(c->scheduled) + " of " +
            std::to_string(flows) + " flows";
    } else if (e.all_complete && c->completed != c->scheduled) {
      why = std::to_string(c->scheduled - c->completed) +
            " flows unfinished at the deadline";
    } else if (e.zero_data_drops && c->data_drops != 0) {
      why = std::to_string(c->data_drops) + " data drops";
    } else if (c->goodput_bps < e.min_goodput_bps) {
      why = "goodput " + json_num(c->goodput_bps / 1e9) +
            " Gbps under the floor " + json_num(e.min_goodput_bps / 1e9);
    }
    if (!why.empty()) {
      v.failed += flows;
      v.problems.push_back(c->name + ": " + why);
    }
  }
  return v;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string outputs_json(const Outputs& o) {
  return "{\"out.goodput_gbps\": " + json_num(o.goodput_gbps) +
         ", \"out.jain\": " + json_num(o.jain) +
         ", \"out.fct_p50_ms\": " + json_num(o.fct_p50_ms) +
         ", \"out.fct_p99_ms\": " + json_num(o.fct_p99_ms) +
         ", \"out.fct_samples\": " + json_num(o.fct_samples) +
         ", \"out.sim_end_ms\": " + json_num(o.sim_end_ms) +
         ", \"out.digest\": " + json_num(o.digest) + "}";
}

}  // namespace xpbench
