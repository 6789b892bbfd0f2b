// Network-topology case study (§IV-2 / Appendix H): express per-rank-pair
// latency as wire-class decision variables and ask how sensitive an
// application is to per-wire latency (e.g. future FEC overheads) under
// Fat Tree vs Dragonfly, plus the per-class tolerance breakdown on the
// Dragonfly (terminal / intra-group / inter-group wires).
//
// The Fat Tree vs Dragonfly comparison runs through the core::Campaign
// engine — topology is just a grid axis, and the campaign builds one graph
// shared by both topology scenarios.  The Dragonfly per-class breakdown
// needs the multi-parameter space the engine does not expose, so it keeps a
// direct solver (and builds its own copy of the graph).
//
//   $ ./topology_study [--ranks=64] [--scale=0.2]

#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/registry.hpp"
#include "core/campaign.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace llamp;
  const Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 64));
  const double scale = cli.get_double("scale", 0.2);

  const loggops::Params params = loggops::NetworkConfig::piz_daint(8'500.0);

  // Zambre et al. values used by the paper: 274 ns per wire, 108 ns per
  // switch.
  core::TopologyOptions topo;
  topo.l_wire = 274.0;
  topo.d_switch = 108.0;
  topo.ft_radix = 16;
  topo.df_groups = 8;
  topo.df_routers = 4;
  topo.df_hosts = 8;

  core::CampaignSpec spec;
  spec.apps = {"icon"};
  spec.ranks = {ranks};
  spec.scales = {scale};
  spec.topologies = {"fat-tree", "dragonfly"};
  spec.configs = {{"daint", params, /*o_is_default=*/false}};
  spec.delta_Ls = {0.0};          // evaluate at the base per-wire latency
  spec.band_percents = {1.0};     // 1% degradation boundary per topology
  spec.topo = topo;
  core::Campaign campaign(spec);
  const auto results = campaign.run();

  std::printf("ICON proxy, %d ranks: per-wire latency sensitivity\n\n", ranks);
  const auto describe = [&](const std::string& t) {
    if (t == "fat-tree") return topo::FatTree(topo.ft_radix).name();
    return topo::Dragonfly(topo.df_groups, topo.df_routers, topo.df_hosts)
        .name();
  };
  Table table({"topology", "T(l_wire=274ns)", "dT/dl_wire",
               "1% degradation at l_wire"});
  for (const auto& res : results) {
    const auto& pt = res.points[0];
    const double tol = res.bands[0].tolerance_delta;  // over the base l_wire
    table.add_row({describe(res.scenario.topology), human_time_ns(pt.runtime),
                   strformat("%.0f", pt.lambda),
                   std::isfinite(tol) ? human_time_ns(topo.l_wire + tol)
                                      : "unbounded"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Dragonfly per-class analysis (Fig. 19): tolerance of each wire class
  // with the other two held at their base values.
  const auto g = schedgen::build_graph(apps::make_app_trace("icon", ranks, scale));
  const topo::Dragonfly dragonfly(topo.df_groups, topo.df_routers,
                                  topo.df_hosts);
  const auto placement = topo::identity_placement(ranks);
  auto df_space = std::make_shared<lp::LinkClassParamSpace>(
      topo::make_dragonfly_class_space(params, dragonfly, placement,
                                       topo.l_wire, topo.l_wire, topo.l_wire,
                                       topo.d_switch));
  lp::LoweredProblem df_solver(g, df_space);
  const double T0 = df_solver.solve(0, topo.l_wire).value;
  std::printf("Dragonfly wire classes (budget = 1%% over T = %s):\n",
              human_time_ns(T0).c_str());
  for (int k = 0; k < df_space->num_params(); ++k) {
    const double tol = df_solver.max_param_for_budget(k, T0 * 1.01);
    std::printf("  %-8s lambda = %5.0f   tolerance = %s\n",
                df_space->param_name(k).c_str(),
                df_solver.solve(k, topo.l_wire).gradient[static_cast<std::size_t>(k)],
                std::isfinite(tol) ? human_time_ns(tol).c_str() : "unbounded");
  }
  return 0;
}
