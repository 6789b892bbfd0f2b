// Layer probes of a traced run.  Two kinds, both timed from the
// benchmark's own code around calls into public functions:
//
//  * short traced slices of the other two workloads, so every layer the
//    benchmark names is measured in every traced run;
//  * direct calls into single layers on the inputs of the workload whose
//    end-to-end metric that layer should move: the wire parser/serializer
//    on the run's own requests and responses, the analyzer and report on
//    every analyze shape of serve_mixed, graph build and lowering on
//    cold_campaign's graphs, stoch::run_mc on mc_uq's two kinds, and
//    Campaign::run on cold_campaign's campaign.
//
// The direct probes rebuild what api::Engine does from public pieces, so
// each compares its result bytes with the workload's reference; a mismatch
// means the probe no longer times what the engine runs.  It is reported as
// a warning and counted in probe.mismatches (it is not a program failure).

#include <algorithm>
#include <set>

#include "api/engine.hpp"
#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "schedgen/schedgen.hpp"
#include "serve/http.hpp"
#include "stoch/mc.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using llamp::api::ResolvedApp;

llamp::loggops::Params preset(const std::string& net) {
  return net == "daint" ? llamp::loggops::NetworkConfig::piz_daint()
                        : llamp::loggops::NetworkConfig::cscs_testbed();
}

/// The scenario api::Engine resolves an app block to (ranks clamped, net
/// preset, Table II overhead).
ResolvedApp resolve(const std::string& app, int ranks, double scale,
                    const std::string& net) {
  ResolvedApp r;
  r.app = app;
  r.ranks = llamp::apps::supported_ranks(app, ranks);
  r.scale = scale;
  r.params = preset(net);
  llamp::core::apply_table2_overhead(r.params, r.app, r.ranks);
  return r;
}

llamp::core::GraphKey key_of(const ResolvedApp& a) {
  return {a.app, a.ranks, a.scale, a.params.S};
}

void compare(const std::string& what, const std::string& got,
             const std::string& want, std::vector<std::string>& warnings) {
  if (got != want) {
    warnings.push_back("probe " + what +
                       " no longer reproduces the engine's bytes");
  }
}

void http_probe(const Workload& main, const Checker& checker, SpanLog& spans,
                std::vector<std::string>& warnings) {
  const auto exchanges = main.exchanges(checker);
  const std::size_t reps = std::max<std::size_t>(1, 512 / exchanges.size());
  const llamp::serve::HttpLimits limits;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const Exchange& e : exchanges) {
      llamp::serve::ParseResult parsed;
      {
        const SpanLog::Scope s(&spans, "serve.http_parse");
        parsed = llamp::serve::parse_http_request(e.request_bytes, limits);
      }
      if (parsed.status != llamp::serve::ParseResult::Status::kRequest) {
        warnings.push_back("probe http_parse rejected a workload request");
        return;
      }
      llamp::serve::HttpResponse res;
      res.body = e.response_body;
      const SpanLog::Scope s(&spans, "serve.http_serialize");
      (void)llamp::serve::serialize_response(res);
    }
  }
}

void analyzer_probe(const Checker& checker, SpanLog& spans,
                    std::vector<std::string>& warnings) {
  llamp::core::GraphCache graphs;
  llamp::core::SolverCache solvers;
  llamp::core::ReportOptions ro;
  ro.sweep_max = llamp::us(100.0);
  ro.sweep_points = 11;
  const auto grid = llamp::core::linear_grid(ro.sweep_max, ro.sweep_points);
  const double step =
      ro.sweep_max / (4.0 * static_cast<double>(ro.max_critical));
  for (const ServeRequest& r : serve_catalogue()) {
    if (r.op != "analyze") continue;
    const ResolvedApp app = resolve(r.app, r.ranks, kServeScale, r.net);
    const auto key = key_of(app);
    const llamp::graph::Graph& g = graphs.get(key);
    const llamp::core::LatencyAnalyzer an(g, app.params, solvers, key);
    // One untimed report first: the warm state serve_mixed's set-up leaves.
    llamp::api::AnalyzeResult ar;
    ar.app = app;
    ar.graph_stats = g.stats_string();
    ar.report = llamp::core::make_report(an, ro);
    compare("analyzer " + r.key, ar.to_json_line() + '\n',
            checker.reference(r.key), warnings);
    for (int rep = 0; rep < 3; ++rep) {
      {
        const SpanLog::Scope s(&spans, "core.analyzer.sweep");
        (void)an.sweep(grid, 0);
      }
      for (const double pct : ro.band_percents) {
        const SpanLog::Scope s(&spans, "core.analyzer.tolerance");
        (void)an.tolerance_delta(pct);
      }
      {
        const SpanLog::Scope s(&spans, "core.analyzer.lambda_G");
        (void)an.lambda_G();
      }
      {
        // The Algorithm-2 scan exactly as make_report bounds it.
        const SpanLog::Scope s(&spans, "core.analyzer.critical_latencies");
        (void)an.solver().critical_values_algorithm2(
            0, app.params.L, app.params.L + ro.sweep_max, step);
      }
      const SpanLog::Scope s(&spans, "core.report.make_report");
      (void)llamp::core::make_report(an, ro);
    }
  }
}

void graph_probe(const std::string& net, SpanLog& spans) {
  llamp::core::GraphCache graphs;
  llamp::core::SolverCache solvers;
  std::set<llamp::core::GraphKey> seen;
  const auto req = campaign_request(net);
  for (const std::string& app_name : req.apps) {
    for (const int ranks : req.ranks) {
      const ResolvedApp app = resolve(app_name, ranks, req.scales[0], net);
      const auto key = key_of(app);
      if (!seen.insert(key).second) continue;
      {
        llamp::trace::Trace trace;
        {
          const SpanLog::Scope s(&spans, "apps.make_app_trace");
          trace = llamp::apps::make_app_trace(app.app, app.ranks, app.scale);
        }
        llamp::schedgen::Options opt;
        opt.rendezvous_threshold = key.S;
        const SpanLog::Scope s(&spans, "schedgen.build_graph");
        (void)llamp::schedgen::build_graph(trace, opt);
      }
      const llamp::graph::Graph* g = nullptr;
      {
        const SpanLog::Scope s(&spans, "core.graph_cache.get");
        g = &graphs.get(key);
      }
      const SpanLog::Scope s(&spans, "core.solver_cache.latency");
      (void)solvers.latency(key, *g, app.params);
    }
  }
}

void mc_probe(std::uint64_t seed, const Checker& checker, SpanLog& spans,
              std::vector<std::string>& warnings) {
  llamp::core::GraphCache graphs;
  llamp::core::SolverCache solvers;
  const auto seeds = mc_seeds(seed);
  for (std::size_t i = 0; i < 2; ++i) {
    const llamp::api::McRequest req = mc_request(i == 1, seeds[i]);
    const ResolvedApp app =
        resolve(req.app.app, req.app.ranks, req.app.scale, req.app.net);
    const auto key = key_of(app);
    llamp::stoch::McSpec spec;
    spec.L = llamp::stoch::Distribution::rel_normal(req.sigma_L);
    spec.o = llamp::stoch::Distribution::rel_normal(req.sigma_o);
    spec.G = llamp::stoch::Distribution::rel_normal(req.sigma_G);
    spec.noise.sigma = req.edge_sigma;
    spec.noise.bias = req.edge_bias;
    spec.samples = req.samples;
    spec.seed = req.seed;
    spec.threads = req.threads;
    spec.delta_Ls = llamp::core::linear_grid(llamp::us(req.grid.dl_max_us),
                                             req.grid.points);
    spec.band_percents = req.bands;
    const llamp::graph::Graph& g = graphs.get(key);
    std::shared_ptr<const llamp::lp::LoweredProblem> lowered;
    if (const auto sp =
            llamp::stoch::shared_operating_point(spec, app.params)) {
      lowered = solvers.latency(key, g, *sp)->problem();
    }
    llamp::api::McResult res;
    res.app = app;
    res.spec = spec;
    {
      const SpanLog::Scope s(
          &spans, i == 1 ? "stoch.run_mc.general" : "stoch.run_mc.fast");
      res.result =
          llamp::stoch::run_mc(g, app.params, spec, std::move(lowered));
    }
    compare("run_mc " + mc_key(i), res.to_json_line(),
            checker.reference(mc_key(i)), warnings);
  }
}

void campaign_probe(const std::string& net, const Checker& checker,
                    SpanLog& spans, std::vector<std::string>& warnings) {
  const auto req = campaign_request(net);
  llamp::core::CampaignSpec spec;
  spec.apps = req.apps;
  spec.ranks = req.ranks;
  spec.scales = req.scales;
  spec.topologies = req.topologies;
  llamp::core::ConfigVariant variant;
  variant.name = net;
  variant.params = preset(net);
  spec.configs = {variant};
  spec.delta_Ls = llamp::core::linear_grid(llamp::us(req.grid.dl_max_us),
                                           req.grid.points);
  spec.threads = req.threads;
  spec.topo = req.topo;
  llamp::core::GraphCache graphs;
  llamp::core::SolverCache solvers;
  llamp::core::Campaign campaign(spec);
  llamp::api::CampaignResult res;
  {
    const SpanLog::Scope s(&spans, "core.campaign.run");
    res.results = campaign.run({}, graphs, solvers);
  }
  res.scenarios = campaign.stats().scenarios_run;
  res.delta_points = spec.delta_Ls.size();
  res.distinct_graphs = campaign.stats().graphs_built;
  compare("campaign " + campaign_key(net), res.to_json_line(),
          checker.reference(campaign_key(net)), warnings);
}

}  // namespace

ProbeResult run_probes(const Options& opts, const Workload& main,
                       Checker& checker, SpanLog& spans) {
  ProbeResult out;
  for (const std::string& name : workload_names()) {
    if (name == opts.workload) continue;
    auto w = make_workload(name, opts.seed);
    w->reference(checker);
    w->setup(checker);
    // serve_mixed needs a few hundred requests for its quantiles; the
    // others run one request (pair) each.
    out.slices[name] =
        w->timed(name == "serve_mixed" ? 0.5 : 0.0, checker, &spans);
  }
  const std::string net = campaign_first_net(opts.seed);
  http_probe(main, checker, spans, out.warnings);
  analyzer_probe(checker, spans, out.warnings);
  graph_probe(net, spans);
  mc_probe(opts.seed, checker, spans, out.warnings);
  campaign_probe(net, checker, spans, out.warnings);
  return out;
}

}  // namespace perfbench
