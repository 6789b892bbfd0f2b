// Table I / Fig. 7: runtime of the LP-based analysis versus the
// LogGOPSim-style discrete-event simulation.  Following Appendix E, both
// sides answer the same question — the runtime at each latency in
// [3 us, 13 us] with a 1 us step (11 evaluations) — over the NPB suite,
// LULESH, and LAMMPS.  The paper reports Gurobi beating LogGOPSim by >6x;
// here the exact parametric LP solver plays Gurobi's role and the speedup
// shape (LP faster, uniformly across apps) is the reproduced result.

#include <cstdio>
#include <memory>

#include "bench_support.hpp"
#include "lp/parametric.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace llamp;

  struct Row {
    std::string app;
    int ranks;
    double scale;
  };
  const std::vector<Row> rows = {
      {"npb-bt", 16, 2.0}, {"npb-cg", 16, 2.0}, {"npb-ep", 16, 2.0},
      {"npb-ft", 16, 2.0}, {"npb-lu", 16, 2.0}, {"npb-mg", 16, 2.0},
      {"npb-sp", 16, 2.0}, {"lulesh", 27, 1.0}, {"lammps", 32, 1.5},
  };

  Table table({"application", "ranks", "events", "LLAMP (LP) [s]",
               "graph DES [s]", "trace DES [s]", "speedup vs graph DES"});
  for (const Row& row : rows) {
    const auto trace = apps::make_app_trace(row.app, row.ranks, row.scale);
    const auto g = schedgen::build_graph(trace);
    const auto params = loggops::NetworkConfig::cscs_testbed(5'000.0);

    // LLAMP: 11 LP solves (each also yields λ_L and the feasibility range,
    // which the simulator cannot produce at all — the paper's point).
    const auto space = std::make_shared<lp::LatencyParamSpace>(params);
    lp::LoweredProblem solver(g, space);
    double lp_checksum = 0.0;
    const bench::Stopwatch lp_watch;
    for (int i = 0; i <= 10; ++i) {
      lp_checksum += solver.solve(0, us(3.0 + i)).value;
    }
    const double lp_time = lp_watch.seconds();

    // LogGOPSim stand-in: 11 discrete-event graph replays.
    sim::Simulator sim(g);
    double sim_checksum = 0.0;
    const bench::Stopwatch sim_watch;
    for (int i = 0; i <= 10; ++i) {
      loggops::Params p = params;
      p.L = us(3.0 + i);
      sim_checksum += sim.run(p).makespan;
    }
    const double sim_time = sim_watch.seconds();

    // Operational (trace-driven) simulator: the independent implementation.
    sim::TraceSimulator op_sim(trace);
    double op_checksum = 0.0;
    const bench::Stopwatch op_watch;
    for (int i = 0; i <= 10; ++i) {
      loggops::Params p = params;
      p.L = us(3.0 + i);
      op_checksum += op_sim.run(p).makespan;
    }
    const double op_time = op_watch.seconds();
    if (std::abs(op_checksum - sim_checksum) >
        1e-6 * (1.0 + std::abs(sim_checksum))) {
      std::printf("WARNING: %s operational-sim mismatch\n", row.app.c_str());
    }

    if (std::abs(lp_checksum - sim_checksum) >
        1e-6 * (1.0 + std::abs(sim_checksum))) {
      std::printf("WARNING: %s runtime mismatch (LP %.6g vs DES %.6g)\n",
                  row.app.c_str(), lp_checksum, sim_checksum);
    }
    table.add_row({row.app, strformat("%d", row.ranks),
                   human_count(static_cast<double>(g.num_vertices())),
                   strformat("%.3f", lp_time), strformat("%.3f", sim_time),
                   strformat("%.3f", op_time),
                   strformat("%.1fx", sim_time / lp_time)});
  }
  std::printf("Latency sweep 3..13 us, 1 us step (Appendix E setup)\n\n%s\n",
              table.to_string().c_str());
  std::printf("Both columns compute identical runtimes (checked); only the "
              "LP additionally yields\nreduced costs (λ_L) and basis ranges "
              "per solve.\n");
  return 0;
}
