// The benchmark's workloads: fixed scenario specs plus a seed, the
// correctness expectations each cell must meet, and the simulated outputs
// ("out.*") that the untraced and traced runs must reproduce exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/scenario.hpp"

namespace xpbench {

namespace runner = xpass::runner;

// What one cell must satisfy for its flows to count as correct. Known
// defects (BFC's data drops, RCP's unfinished flows) are deliberately not
// expectations: they stay visible as reported counts.
struct Expect {
  bool all_complete = false;  // every scheduled flow completes by the deadline
  bool zero_data_drops = false;
  double min_goodput_bps = 0;  // 0 = no goodput floor
};

struct Cell {
  runner::ScenarioSpec spec;
  Expect expect;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  bool grid = false;  // cells run through ScenarioEngine::run_grid
  size_t jobs = 1;    // grid worker count
};

// The workload `name` generated from `seed`. `quick` shrinks every cell to
// a tiny scale for the benchmark's self-check. Throws on an unknown name.
Workload make_workload(const std::string& name, uint64_t seed, bool quick);

// The same cells stopped at simulated time zero: build, route, create
// transports and schedule every flow, without simulating.
Workload setup_only(Workload w);

// Simulated outputs of one cell, as produced by either run path.
struct CellOut {
  std::string name;
  size_t scheduled = 0;
  size_t completed = 0;
  uint64_t data_drops = 0;
  double goodput_bps = 0;
  double jain = 0;
  size_t starved = 0;
  std::vector<double> fcts_sorted;  // seconds, ascending
  double sim_end_ms = 0;
  uint64_t digest = 0;
};

// Flows whose goodput is under 5% of the mean per-flow goodput (the
// repo's starvation criterion).
size_t count_starved(const std::vector<std::pair<uint32_t, double>>& rates,
                     double sum_bps);

// Extracts a cell's outputs from an engine result.
CellOut cell_out(const runner::ScenarioResult& r);

// FNV-1a over everything a cell's outputs determine: counts, end time,
// drops, per-flow goodput bits and every FCT sample's bits.
uint64_t cell_digest(const CellOut& c,
                     const std::vector<std::pair<uint32_t, double>>& rates,
                     uint64_t credit_drops);

// Workload-level outputs folded over cells (sum of goodput, min Jain,
// percentiles over the union of FCT samples, max end time, chained digest).
struct Outputs {
  double goodput_gbps = 0;
  double jain = 0;
  double fct_p50_ms = 0;
  double fct_p99_ms = 0;
  double fct_samples = 0;
  double sim_end_ms = 0;
  double digest = 0;  // 52-bit digest, exact in a JSON number
};
Outputs fold_outputs(const std::vector<CellOut>& cells);

// Operations (scheduled flows) and failures of one workload run. A flow
// fails when its cell misses an expectation: every flow of that cell.
struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  // Flows not completed by the deadline (completion cells) or starved
  // (fixed-horizon cells), whatever the protocol; a known defect shows here.
  size_t unfinished = 0;
  std::vector<std::string> problems;
};
Verdict judge(const Workload& w, const std::vector<CellOut>& cells);

// Minimal JSON emission helpers.
std::string json_str(const std::string& s);
std::string json_num(double v);
std::string outputs_json(const Outputs& o);

}  // namespace xpbench
