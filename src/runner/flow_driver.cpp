#include "runner/flow_driver.hpp"

#include <algorithm>

namespace xpass::runner {

void FlowDriver::set_parallel(sim::ParallelSimulator& psim,
                              const std::vector<uint32_t>& shard_of) {
  shard_of_ = &shard_of;
  sinks_.clear();
  for (size_t i = 0; i < psim.shard_count(); ++i) {
    sinks_.push_back(std::make_unique<ShardSink>());
  }
}

transport::Connection& FlowDriver::add(const transport::FlowSpec& spec) {
  ++scheduled_;
  auto conn = transport_.create(spec);
  if (sinks_.empty()) {
    conn->set_rate_tracker(&rates_);
    conn->set_on_complete([this](transport::Connection& c) {
      fcts_.record(c.spec().size_bytes, c.fct());
    });
  } else {
    // The receiver half — the only caller of deliver()/on_complete — runs
    // on the destination host's shard thread; give it that shard's sink.
    ShardSink& sink = *sinks_[(*shard_of_)[spec.dst->id()]];
    conn->set_rate_tracker(&sink.rates);
    conn->set_on_complete([&sink](transport::Connection& c) {
      sink.completions.push_back({c.completion_time(), c.spec().id,
                                  c.spec().size_bytes, c.fct()});
    });
  }
  conn->set_on_fail([this](transport::Connection&) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  });
  transport::Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  sim_.at(spec.start_time, [raw] { raw->start(); });
  return *raw;
}

transport::Connection& FlowDriver::add_grouped(const transport::FlowSpec& spec,
                                               transport::Transport& t,
                                               size_t group) {
  while (groups_.size() <= group) {
    groups_.push_back(std::make_unique<GroupStats>());
  }
  GroupStats& gs = *groups_[group];
  ++gs.scheduled;
  ++scheduled_;
  auto conn = t.create(spec);
  conn->set_rate_tracker(&rates_);
  conn->set_on_complete([this, &gs](transport::Connection& c) {
    fcts_.record(c.spec().size_bytes, c.fct());
    gs.fcts.record(c.spec().size_bytes, c.fct());
  });
  conn->set_on_fail([this, &gs](transport::Connection&) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    gs.failed.fetch_add(1, std::memory_order_relaxed);
  });
  flow_group_.emplace_back(spec.id, group);
  std::sort(flow_group_.begin(), flow_group_.end());
  transport::Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  sim_.at(spec.start_time, [raw] { raw->start(); });
  return *raw;
}

bool FlowDriver::run_to_completion(
    sim::Time deadline, sim::Time chunk,
    const std::function<bool(sim::Time)>& advance) {
  for (sim::Time t = sim_.now();
       t < deadline && completed() + failed() < scheduled_;) {
    t = std::min(t + chunk, deadline);
    if (advance) {
      if (!advance(t)) break;
    } else {
      sim_.run_until(t);
      // A budget abort turns run_until into a no-op: now() stops
      // advancing, so without this break the settle loop would spin on.
      if (sim_.aborted()) break;
    }
  }
  return completed() >= scheduled_;
}

void FlowDriver::sync_rates() {
  for (auto& s : sinks_) s->rates.drain_into(rates_);
}

void FlowDriver::finish_parallel() {
  if (sinks_.empty()) return;
  sync_rates();
  std::vector<Completion> all;
  for (auto& s : sinks_) {
    all.insert(all.end(), s->completions.begin(), s->completions.end());
    s->completions.clear();
  }
  std::sort(all.begin(), all.end(), [](const Completion& a,
                                       const Completion& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.id < b.id;
  });
  for (const Completion& c : all) fcts_.record(c.bytes, c.fct);
}

void FlowDriver::stop_all() {
  for (auto& c : conns_) c->stop();
}

}  // namespace xpass::runner
