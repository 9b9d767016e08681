// xpbench: one workload run per process, printed as one JSON line.
//
// Instance i of seed N simulates spec seed N (i = 0) or
// exec::task_seed(N, i), so a run's instances are distinct inputs that all
// follow from N.
//
//   xpbench engine --workload W --seed N [--instance I] [--quick]
//       ScenarioEngine::run / run_grid, untraced: wall and CPU seconds from
//       spec to result, simulated outputs and the correctness verdict.
//   xpbench setup --workload W --seed N [--instance I] --reps K [--quick]
//       At least K runs (and one second) of the same specs stopped at
//       simulated time zero.
//   xpbench trace --workload W --seed N [--instance I] [--quick]
//                 [--spans FILE]
//       The traced rebuild: per-layer metrics, outputs and verdict; the
//       spans go to FILE as Chrome trace-event JSON.
//   xpbench host
//       Compiler and build type of this binary.
//
// run.py drives these processes; see README.md.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/sweep_runner.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace xpbench;
using Clock = std::chrono::steady_clock;

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

// Peak resident set of this process so far (Linux reports KiB).
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<CellOut> run_engine(const Workload& w) {
  std::vector<runner::ScenarioSpec> specs;
  for (const Cell& c : w.cells) specs.push_back(c.spec);
  const runner::ScenarioEngine engine;
  std::vector<runner::ScenarioResult> results;
  if (w.grid) {
    results = engine.run_grid(specs, w.jobs);
  } else {
    results.push_back(engine.run(specs[0]));
  }
  std::vector<CellOut> out;
  for (const auto& r : results) out.push_back(cell_out(r));
  return out;
}

std::string verdict_json(const Verdict& v) {
  std::string s = "\"attempted\": " + std::to_string(v.attempted) +
                  ", \"failed\": " + std::to_string(v.failed) +
                  ", \"unfinished\": " + std::to_string(v.unfinished) +
                  ", \"problems\": [";
  for (size_t i = 0; i < v.problems.size(); ++i) {
    s += (i ? ", " : "") + json_str(v.problems[i]);
  }
  return s + "]";
}

std::string cells_json(const std::vector<CellOut>& cells) {
  std::string s = "[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellOut& c = cells[i];
    s += std::string(i ? ", " : "") + "{\"name\": " + json_str(c.name) +
         ", \"scheduled\": " + std::to_string(c.scheduled) +
         ", \"completed\": " + std::to_string(c.completed) +
         ", \"data_drops\": " + std::to_string(c.data_drops) +
         ", \"sim_end_ms\": " + json_num(c.sim_end_ms) + "}";
  }
  return s + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: xpbench engine|setup|trace --workload W --seed N "
               "[--instance I] [--quick] [--reps K] [--spans FILE]\n"
               "       xpbench host\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "host") {
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    std::printf("{\"compiler\": %s, \"build_type\": %s}\n",
                json_str(compiler).c_str(),
                json_str(XPBENCH_BUILD_TYPE).c_str());
    return 0;
  }
  std::string workload, spans_file;
  uint64_t seed = 0;
  bool have_seed = false, quick = false;
  size_t reps = 1;
  uint64_t instance = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--instance" && has_val) {
      instance = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--reps" && has_val) {
      reps = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--spans" && has_val) {
      spans_file = argv[++i];
    } else if (a == "--quick") {
      quick = true;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || reps == 0) return usage();

  try {
    const uint64_t spec_seed =
        instance == 0 ? seed : xpass::exec::task_seed(seed, instance);
    const Workload w = make_workload(workload, spec_seed, quick);
    if (mode == "engine") {
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      const std::vector<CellOut> cells = run_engine(w);
      const double wall = since(t0);
      const double cpu = cpu_seconds() - cpu0;
      std::printf("{\"mode\": \"engine\", \"wall_s\": %s, \"cpu_s\": %s, "
                  "\"peak_rss_mb\": %s, %s, \"out\": %s, \"cells\": %s}\n",
                  json_num(wall).c_str(), json_num(cpu).c_str(),
                  json_num(peak_rss_mb()).c_str(),
                  verdict_json(judge(w, cells)).c_str(),
                  outputs_json(fold_outputs(cells)).c_str(),
                  cells_json(cells).c_str());
    } else if (mode == "setup") {
      // At least `reps` set-ups and at least one second of them, so that
      // sub-millisecond set-ups still yield a steady median.
      const Workload s = setup_only(w);
      std::string times;
      const auto start = Clock::now();
      for (size_t i = 0; i < reps || (since(start) < 1.0 && i < 10000); ++i) {
        const auto t0 = Clock::now();
        run_engine(s);
        times += (i ? ", " : "") + json_num(since(t0));
      }
      std::printf("{\"mode\": \"setup\", \"setup_s\": [%s]}\n", times.c_str());
    } else if (mode == "trace") {
      const TracedRun r = run_traced(w);
      std::string metrics;
      for (const auto& [name, v] : layer_metrics(r)) {
        metrics += (metrics.empty() ? "" : ", ") + json_str(name) + ": " +
                   json_num(v);
      }
      if (!spans_file.empty()) {
        std::ofstream f(spans_file);
        f << spans_json(r.spans);
        if (!f) throw std::runtime_error("cannot write " + spans_file);
      }
      std::printf("{\"mode\": \"trace\", \"wall_s\": %s, %s, \"layers\": {%s}, "
                  "\"out\": %s, \"cells\": %s}\n",
                  json_num(r.wall_s).c_str(),
                  verdict_json(judge(w, r.cells)).c_str(), metrics.c_str(),
                  outputs_json(fold_outputs(r.cells)).c_str(),
                  cells_json(r.cells).c_str());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xpbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
