#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "apps/registry.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "stoch/mc.hpp"
#include "topo/spaces.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::core {
namespace {

bool known_topology(const std::string& name) {
  return name == "none" || name == "fat-tree" || name == "dragonfly";
}

void validate_scenario(const Scenario& s) {
  if (s.app.empty()) throw UsageError("scenario with empty app");
  if (s.ranks < 1) {
    throw UsageError(strformat("need ranks >= 1 (got %d)", s.ranks));
  }
  if (!(s.scale > 0.0) || !std::isfinite(s.scale)) {
    throw UsageError(
        strformat("need finite scale > 0 (got %g)", s.scale));
  }
  if (!known_topology(s.topology)) {
    throw UsageError("unknown topology '" + s.topology +
                     "' (want none, fat-tree, or dragonfly)");
  }
  if (s.delta_Ls.empty()) throw UsageError("empty ΔL grid");
  for (const TimeNs d : s.delta_Ls) {
    if (!(d >= 0.0) || !std::isfinite(d)) {
      throw UsageError(
          strformat("ΔL grid values must be finite and >= 0 "
                    "(got %g)", d));
    }
  }
  for (const double pct : s.band_percents) {
    if (!(pct >= 0.0)) {
      throw UsageError(
          strformat("tolerance band percent must be >= 0 (got %g)",
                    pct));
    }
  }
  // The LogGPS values are part of the user-supplied grid spec, so a bad
  // variant (negative L from --L-list, ...) is a usage error like every
  // other degenerate axis, not an analysis failure.
  try {
    s.params.validate();
  } catch (const Error& e) {
    throw UsageError(strformat("config '%s' invalid: %s",
                               s.config.c_str(), e.what()));
  }
}

/// First-occurrence-preserving dedup for a grid axis: the engine's contract
/// is that a grid never analyzes one scenario twice, whatever the user
/// typed (--apps=lulesh,lulesh, repeated scales, rank-clamp collisions).
template <typename T>
std::vector<T> dedup(const std::vector<T>& values) {
  std::vector<T> out;
  for (const T& v : values) {
    bool seen = false;
    for (const T& prev : out) seen = seen || prev == v;
    if (!seen) out.push_back(v);
  }
  return out;
}

bool same_params(const loggops::Params& a, const loggops::Params& b) {
  return a.L == b.L && a.o == b.o && a.g == b.g && a.G == b.G && a.O == b.O &&
         a.S == b.S;
}

GraphKey graph_key(const Scenario& s) {
  return {s.app, s.ranks, s.scale, s.params.S};
}

std::unique_ptr<topo::Topology> make_topology(const std::string& name,
                                              const TopologyOptions& topo) {
  try {
    if (name == "fat-tree") {
      return std::make_unique<topo::FatTree>(topo.ft_radix);
    }
    return std::make_unique<topo::Dragonfly>(topo.df_groups, topo.df_routers,
                                             topo.df_hosts);
  } catch (const Error& e) {
    throw UsageError(strformat("bad %s shape: %s", name.c_str(),
                               e.what()));
  }
}

/// Topology shape and fit are part of the user-supplied spec, so a
/// too-small network or an invalid radix is a usage error, raised at
/// construction time — before any graph is built.
void validate_topology(const Scenario& s, const TopologyOptions& topo) {
  if (s.topology == "none") return;
  const auto t = make_topology(s.topology, topo);
  if (t->nnodes() < s.ranks) {
    throw UsageError(strformat("%s has only %d nodes for %d ranks",
                               t->name().c_str(), t->nnodes(), s.ranks));
  }
}

/// The active-parameter space of a scenario plus its base value: flat L for
/// "none", the shared per-wire latency for the physical topologies.
struct ScenarioSpace {
  std::shared_ptr<const lp::ParamSpace> space;
  double base = 0.0;
};

ScenarioSpace make_space(const Scenario& s, const TopologyOptions& topo) {
  if (s.topology == "none") {
    return {std::make_shared<lp::LatencyParamSpace>(s.params), s.params.L};
  }
  // Shape and fit were already validated by the Campaign constructors.
  const auto t = make_topology(s.topology, topo);
  return {std::make_shared<lp::LinkClassParamSpace>(topo::make_wire_latency_space(
              s.params, *t, topo::identity_placement(s.ranks), topo.l_wire,
              topo.d_switch)),
          topo.l_wire};
}

/// mc-axis hygiene shared by both Campaign constructors: the axis only
/// makes sense with samples >= 0, valid noise knobs, and flat-latency
/// scenarios (the per-sample LogGPS resampling targets L; a wire-latency
/// space has no single L to perturb).
void validate_mc(const McAxis& mc, const std::vector<Scenario>& scenarios) {
  if (mc.samples < 0) {
    throw UsageError(
        strformat("need mc samples >= 0 (got %d)", mc.samples));
  }
  // Knob well-formedness is checked whatever the sample count: a negative
  // sigma must be a usage error even when the axis is off, never a silent
  // fall-back (the CLI's typo'd-flag stance).
  stoch::Distribution::rel_normal(mc.sigma_L).validate("mc L");
  stoch::Distribution::rel_normal(mc.sigma_o).validate("mc o");
  stoch::Distribution::rel_normal(mc.sigma_G).validate("mc G");
  mc.noise.validate();
  if (mc.samples == 0) {
    // Jitter configured but the axis off is a silent no-op waiting to
    // mislead — reject rather than run a deterministic campaign the user
    // believes is stochastic.
    if (mc.sigma_L != 0.0 || mc.sigma_o != 0.0 || mc.sigma_G != 0.0 ||
        !mc.noise.degenerate()) {
      throw UsageError(
          "mc jitter configured but mc samples == 0 (set "
          "--mc-samples)");
    }
    return;
  }
  for (const Scenario& s : scenarios) {
    if (s.topology != "none") {
      throw UsageError(
          "the mc axis requires topology 'none' (got '" +
          s.topology + "')");
    }
  }
}

/// The order in which Campaign::run hands scenarios to its workers: one
/// scenario per distinct graph first, largest ranks x scale first (the
/// graph build dominates a cold scenario and grows with both; ties keep
/// first-appearance order), then every remaining scenario in grid order.
/// Builds therefore start as early as possible and the longest one starts
/// first, while scenarios sharing a graph trail behind its build.  Sets
/// `distinct_graphs` to the number of distinct graphs the scenarios span.
std::vector<std::size_t> cost_order(const std::vector<Scenario>& scenarios,
                                    std::size_t& distinct_graphs) {
  std::vector<std::size_t> builds;
  std::vector<std::size_t> rest;
  std::set<GraphKey> seen;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    (seen.insert(graph_key(scenarios[i])).second ? builds : rest).push_back(i);
  }
  const auto cost = [&](std::size_t i) {
    return scenarios[i].ranks * scenarios[i].scale;
  };
  std::stable_sort(builds.begin(), builds.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost(a) > cost(b);
                   });
  distinct_graphs = builds.size();
  builds.insert(builds.end(), rest.begin(), rest.end());
  return builds;
}

Campaign::ScenarioResult eval_scenario(const Scenario& s,
                                       const graph::Graph& g,
                                       const TopologyOptions& topo,
                                       const McAxis& mc,
                                       const Campaign::Probe& probe,
                                       SolverCache& solvers,
                                       lp::LoweredProblem::Cursor& ws) {
  Campaign::ScenarioResult res;
  res.scenario = s;
  res.graph_vertices = g.num_vertices();
  res.graph_edges = g.num_edges();

  // Flat-latency scenarios resolve their lowering through the solver
  // cache (shared across campaigns / request types of one session) and
  // serve the grid through Entry::sweep — replays where an anchor covers a
  // point, recorded dense solves otherwise, bitwise identical either way.
  // Topology scenarios keep per-scenario wire-latency lowerings (not
  // cacheable by LogGPS fingerprint) and walk them directly.
  std::shared_ptr<SolverCache::Entry> entry;
  std::shared_ptr<const lp::LoweredProblem> solver;
  double base = 0.0;
  if (s.topology == "none") {
    entry = solvers.latency(graph_key(s), g, s.params);
    solver = entry->problem();
    base = s.params.L;
  } else {
    const ScenarioSpace ss = make_space(s, topo);
    solver = std::make_shared<const lp::LoweredProblem>(g, ss.space);
    base = ss.base;
  }
  res.base_runtime =
      entry ? entry->eval(0, base, ws).value : solver->solve(0, base, ws).value;

  const std::size_t npts = s.delta_Ls.size();
  std::vector<double> xs(npts);
  bool ascending = true;
  for (std::size_t i = 0; i < npts; ++i) {
    xs[i] = base + s.delta_Ls[i];
    if (i > 0 && s.delta_Ls[i - 1] > s.delta_Ls[i]) ascending = false;
  }
  std::vector<lp::LoweredProblem::SweepEval> evals(npts);
  if (entry) {
    // Through the cache: repeated campaigns (and repeated grid points
    // across scenarios sharing a graph + config) replay instead of
    // re-solving.  Grid order is irrelevant here.
    entry->sweep(0, xs, ws, evals.data());
  } else if (ascending) {
    // Every CLI grid is ascending: one segment walk answers the whole grid
    // in O(#linear pieces) forward passes, bitwise identical to per-point
    // solves.
    solver->sweep(0, xs, ws, evals.data());
  } else {
    // Explicit scenario lists may order their grids arbitrarily; fall back
    // to dense per-point solves through the same workspace.
    for (std::size_t i = 0; i < npts; ++i) {
      const auto& sol = solver->solve(0, xs[i], ws);
      evals[i] = {xs[i], sol.value, sol.gradient[0]};
    }
  }
  res.points.resize(npts);
  for (std::size_t i = 0; i < npts; ++i) {
    Campaign::Point& pt = res.points[i];
    pt.delta_L = s.delta_Ls[i];
    pt.runtime = evals[i].value;
    pt.lambda = evals[i].slope;
    pt.rho = pt.runtime > 0.0 ? xs[i] * pt.lambda / pt.runtime : 0.0;
  }

  res.bands.reserve(s.band_percents.size());
  for (const double pct : s.band_percents) {
    const double budget = res.base_runtime * (1.0 + pct / 100.0);
    const double tol = solver->max_param_for_budget(0, budget, ws);
    res.bands.push_back({pct, std::isfinite(tol) ? tol - base : tol});
  }

  if (mc.samples > 0) {
    // The stochastic companion analysis of this scenario: same graph, same
    // ΔL grid, operating point resampled `samples` times.  Runs
    // single-threaded — the campaign already parallelizes across
    // scenarios — and seeds identically for every scenario (common random
    // numbers; see McAxis).
    stoch::McSpec spec;
    spec.L = stoch::Distribution::rel_normal(mc.sigma_L);
    spec.o = stoch::Distribution::rel_normal(mc.sigma_o);
    spec.G = stoch::Distribution::rel_normal(mc.sigma_G);
    spec.noise = mc.noise;
    spec.samples = mc.samples;
    spec.seed = mc.seed;
    spec.threads = 1;
    spec.delta_Ls = s.delta_Ls;
    spec.band_percents.clear();
    // With all-degenerate jitter off-axes the mc run's shared solver is
    // exactly this scenario's cached lowering; run_mc verifies the match
    // and lowers afresh otherwise.
    const stoch::McResult mres = stoch::run_mc(
        g, s.params, spec, entry ? entry->problem() : nullptr);
    res.mc.reserve(mres.runtime.size());
    for (const stoch::Summary& sum : mres.runtime) {
      res.mc.push_back({sum.mean(), sum.stddev(), sum.q05(), sum.q95()});
    }
  }

  if (probe) {
    const auto values = probe(s, g);
    if (values.size() != res.points.size()) {
      throw Error(strformat(
          "probe returned %zu values for %zu ΔL points",
          values.size(), res.points.size()));
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      res.points[i].probe = values[i];
    }
  }
  return res;
}

}  // namespace

std::vector<TimeNs> linear_grid(TimeNs dl_max, int points) {
  if (points < 2) {
    throw UsageError(strformat("need --points >= 2 (got %d)", points));
  }
  if (!(dl_max > 0.0) || !std::isfinite(dl_max)) {
    throw UsageError(strformat(
        "need --dl-max-us > 0 (got %g us): a ΔL sweep needs a positive "
        "ceiling", to_us(dl_max)));
  }
  std::vector<TimeNs> grid;
  grid.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    grid.push_back(dl_max * i / (points - 1));
  }
  return grid;
}

void apply_table2_overhead(loggops::Params& p, const std::string& app,
                           int ranks) {
  // Table II keys overhead by node count; approximate it by rank count the
  // way the validation benches do (LULESH's middle scale is 27 = 3^3).
  const int node_key = ranks <= 8 ? 8 : (ranks <= 32 ? 32 : 64);
  const int lulesh_key = ranks <= 8 ? 8 : (ranks <= 27 ? 27 : 64);
  try {
    p.o = loggops::NetworkConfig::table2_overhead(
        app, app == "lulesh" ? lulesh_key : node_key);
  } catch (const Error&) {
    // Not a Table II application; the preset default stands.
  }
}

Campaign::Campaign(const CampaignSpec& spec)
    : topo_(spec.topo), mc_(spec.mc), threads_(spec.threads) {
  if (spec.apps.empty()) throw UsageError("empty app list");
  if (spec.ranks.empty()) throw UsageError("empty ranks list");
  if (spec.scales.empty()) throw UsageError("empty scales list");
  if (spec.topologies.empty()) {
    throw UsageError("empty topology list");
  }
  std::vector<ConfigVariant> configs;
  for (const ConfigVariant& cfg : spec.configs) {
    // Dedupe variants with equal parameter vectors whatever their spelling
    // ("--L-list=5,5.0"): like every other axis, a grid never analyzes one
    // scenario twice.  The first spelling names the surviving variant.
    bool seen = false;
    for (const ConfigVariant& prev : configs) {
      seen = seen || (same_params(prev.params, cfg.params) &&
                      prev.o_is_default == cfg.o_is_default);
    }
    if (!seen) configs.push_back(cfg);
  }
  if (configs.empty()) {
    configs.push_back({"cscs", loggops::NetworkConfig::cscs_testbed(), true});
  }
  {
    // Distinct surviving variants sharing one name would make result rows
    // indistinguishable — reject rather than guess.
    std::vector<std::string> names;
    for (const ConfigVariant& cfg : configs) names.push_back(cfg.name);
    if (dedup(names).size() != names.size()) {
      throw UsageError(
          "duplicate config variant names for distinct parameters");
    }
  }
  const auto apps_axis = dedup(spec.apps);
  const auto scales_axis = dedup(spec.scales);
  const auto topologies_axis = dedup(spec.topologies);
  for (const std::string& app : apps_axis) {
    // Clamp the requested rank counts to the app's supported values and
    // drop collisions (e.g. 8 and 9 both clamp to 8 for LULESH) so the
    // grid never runs one scenario twice.
    std::vector<int> ranks;
    for (const int want : spec.ranks) {
      if (want < 1) {
        throw UsageError(
            strformat("need ranks >= 1 (got %d)", want));
      }
      ranks.push_back(apps::supported_ranks(app, want));
    }
    ranks = dedup(ranks);
    for (const int r : ranks) {
      for (const double scale : scales_axis) {
        for (const std::string& topology : topologies_axis) {
          for (const ConfigVariant& cfg : configs) {
            Scenario s;
            s.app = app;
            s.ranks = r;
            s.scale = scale;
            s.topology = topology;
            s.config = cfg.name;
            s.params = cfg.params;
            if (cfg.o_is_default) apply_table2_overhead(s.params, app, r);
            s.delta_Ls = spec.delta_Ls;
            s.band_percents = spec.band_percents;
            validate_scenario(s);
            validate_topology(s, topo_);
            scenarios_.push_back(std::move(s));
          }
        }
      }
    }
  }
  validate_mc(mc_, scenarios_);
}

Campaign::Campaign(std::vector<Scenario> scenarios, TopologyOptions topo,
                   int threads, McAxis mc)
    : scenarios_(std::move(scenarios)), topo_(topo), mc_(mc),
      threads_(threads) {
  if (scenarios_.empty()) throw UsageError("empty scenario list");
  for (const Scenario& s : scenarios_) {
    validate_scenario(s);
    validate_topology(s, topo_);
  }
  validate_mc(mc_, scenarios_);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe) {
  // Without a session cache the graphs live exactly as long as the run.
  GraphCache cache;
  return run(probe, cache);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe,
                                                    GraphCache& cache) {
  // Without a session solver cache the lowerings live exactly as long as
  // the run (still shared across this run's scenarios and grid points).
  SolverCache solvers;
  return run(probe, cache, solvers);
}

std::vector<Campaign::ScenarioResult> Campaign::run(const Probe& probe,
                                                    GraphCache& cache,
                                                    SolverCache& solvers) {
  // One self-scheduled pass over the scenarios in cost order: workers claim
  // one scenario at a time, the first claimant of a graph builds it through
  // the cache's per-key lock, and later claimants of the same graph wait for
  // that build (or hit).  Each job writes only its own result slot, so the
  // result order is grid order whatever the thread count and claim race.
  // Each slot owns one solve workspace, reused across all scenarios it
  // serves — steady-state solves allocate nothing.
  std::size_t distinct_graphs = 0;
  const std::vector<std::size_t> order =
      cost_order(scenarios_, distinct_graphs);
  std::vector<ScenarioResult> results(scenarios_.size());
  std::vector<lp::LoweredProblem::Cursor> wss(static_cast<std::size_t>(
      effective_threads(scenarios_.size(), threads_)));
  parallel_for(order.size(), threads_, [&](int w, std::size_t j) {
    const std::size_t i = order[j];
    const Scenario& s = scenarios_[i];
    const graph::Graph& g = cache.get(graph_key(s));
    results[i] = eval_scenario(s, g, topo_, mc_, probe, solvers,
                               wss[static_cast<std::size_t>(w)]);
  });

  stats_.graphs_built = distinct_graphs;
  stats_.scenarios_run = scenarios_.size();
  return results;
}

Table campaign_points_table(const std::vector<Campaign::ScenarioResult>& results,
                            bool human, const std::string& probe_name) {
  bool has_mc = false;
  for (const auto& res : results) has_mc = has_mc || !res.mc.empty();
  std::vector<std::string> headers =
      human ? std::vector<std::string>{"app", "ranks", "scale", "topo",
                                       "config", "ΔL", "T(ΔL)", "slowdown",
                                       "lambda_L", "rho_L"}
            : std::vector<std::string>{"app", "ranks", "scale", "topology",
                                       "config", "delta_l_ns", "runtime_ns",
                                       "lambda_l", "rho_l"};
  if (has_mc) {
    const auto mc_headers =
        human ? std::vector<std::string>{"T mean", "T sd", "T q05", "T q95"}
              : std::vector<std::string>{"runtime_mean_ns", "runtime_sd_ns",
                                         "runtime_q05_ns", "runtime_q95_ns"};
    headers.insert(headers.end(), mc_headers.begin(), mc_headers.end());
  }
  if (!probe_name.empty()) headers.push_back(probe_name);
  Table t(std::move(headers));
  for (const auto& res : results) {
    const Scenario& s = res.scenario;
    for (std::size_t i = 0; i < res.points.size(); ++i) {
      const auto& pt = res.points[i];
      std::vector<std::string> row;
      if (human) {
        row = {s.app,
               strformat("%d", s.ranks),
               strformat("%g", s.scale),
               s.topology,
               s.config,
               human_time_ns(pt.delta_L),
               human_time_ns(pt.runtime),
               strformat("%+.2f%%",
                         100.0 * (pt.runtime / res.base_runtime - 1.0)),
               strformat("%.0f", pt.lambda),
               strformat("%.1f%%", 100.0 * pt.rho)};
        if (has_mc) {
          const Campaign::McPoint mp =
              i < res.mc.size() ? res.mc[i] : Campaign::McPoint{};
          row.push_back(human_time_ns(mp.mean));
          row.push_back(human_time_ns(mp.stddev));
          row.push_back(human_time_ns(mp.q05));
          row.push_back(human_time_ns(mp.q95));
        }
        if (!probe_name.empty()) row.push_back(human_time_ns(pt.probe));
      } else {
        row = {s.app,
               strformat("%d", s.ranks),
               strformat("%g", s.scale),
               s.topology,
               s.config,
               strformat("%.1f", pt.delta_L),
               strformat("%.1f", pt.runtime),
               strformat("%.6g", pt.lambda),
               strformat("%.6g", pt.rho)};
        if (has_mc) {
          const Campaign::McPoint mp =
              i < res.mc.size() ? res.mc[i] : Campaign::McPoint{};
          row.push_back(strformat("%.1f", mp.mean));
          row.push_back(strformat("%.1f", mp.stddev));
          row.push_back(strformat("%.1f", mp.q05));
          row.push_back(strformat("%.1f", mp.q95));
        }
        if (!probe_name.empty()) row.push_back(strformat("%.1f", pt.probe));
      }
      t.add_row(std::move(row));
    }
  }
  return t;
}

}  // namespace llamp::core
