#include "tools/cli_driver.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "apps/registry.hpp"
#include "core/report.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::tools {
namespace {

constexpr const char* kUsage = R"(llamp — LP-based MPI latency-tolerance analysis (conf_sc_ShenHCSDGWH24)

usage: llamp <subcommand> [options]

subcommands:
  analyze   full tolerance report: runtime forecast curve, lambda_L / rho_L,
            tolerance bands, critical latencies, lambda_G
  sweep     evaluate runtime / lambda_L / rho_L over a grid of latency
            injections ΔL (LP solves run in parallel)
  campaign  batch engine for multi-scenario studies: expand
            {apps} x {ranks} x {scales} x {topologies} x {LogGPS variants}
            x ΔL grid into analysis jobs, run them on a thread pool (one
            graph build and one solver per scenario), emit the whole grid
  mc        Monte Carlo uncertainty quantification: resample the LogGPS
            operating point (and optionally per-edge cost noise) N times,
            stream the perturbed LP analyses into distributional summaries
            (runtime quantiles per ΔL, lambda_L spread, tolerance bands
            with confidence intervals)
  batch     serve a JSONL request stream on one engine session: one request
            object per input line ({"op": "analyze", ...} mirroring the
            subcommand flags; see DESIGN.md §4d), one result object per
            line on stdout, in input order whatever --threads; graphs are
            cached across the whole batch
  topo      per-wire latency sensitivity on Fat Tree vs Dragonfly, plus the
            Dragonfly per-wire-class tolerance breakdown
  place     compare block, volume-greedy, and LLAMP Algorithm-3 rank
            placements on a Fat Tree
  stats     print one engine session's metrics summary — request counters,
            cache and pool statistics, latency quantiles; optionally
            execute a JSONL request file first so the summary describes a
            real workload
  serve     run the analysis engine as an HTTP/1.1 daemon on loopback:
            POST /v1/{analyze,sweep,campaign,mc,topo,place} take the batch
            request JSON ("op" optional — the path names it) and return
            the batch result line; GET /healthz and GET /metrics answer
            even mid-campaign; SIGTERM/SIGINT drain in-flight requests and
            exit 0
  apps      list the registered proxy applications

`llamp`, `llamp help`, and `llamp <subcommand> --help` print this text and
exit 0; `llamp --version` prints the version.  In --format=json modes,
errors are additionally emitted on stdout as {"error": {...}} objects
(exit codes unchanged: 1 analysis error, 2 usage error).

common options (analyze/sweep/mc/topo/place; campaign has its own axes below):
  --app=NAME        proxy application (default lulesh; see `llamp apps`)
  --ranks=N         requested rank count, clamped to the nearest supported
                    value at or below N (default 8)
  --scale=S         iteration-count multiplier for the proxy (default 0.25)
  --net=cscs|daint  network preset: CSCS testbed or Piz Daint (default cscs)
  --L=NS --o=NS --G=NS_PER_BYTE --S=BYTES
                    override individual LogGPS parameters (ns / bytes);
                    by default o comes from the paper's Table II per-app fit

analyze/sweep/mc/campaign options:
  --dl-max-us=X     sweep ceiling ΔL_max in microseconds (default 100, > 0)
  --points=N        grid points in [0, ΔL_max] (default 11, >= 2)
  --threads=N       parallelism, <= 0 = hardware concurrency (default 0)
  --format=F        table (default), csv, or json
  --csv             (sweep) shorthand for --format=csv

batch options:
  --file=PATH       JSONL request file; '-' reads stdin (default -)
  --threads=N       request-level parallelism, <= 0 = hardware concurrency
  --metrics         print the session metrics summary to stderr after the
                    response stream (stdout stays pure JSONL)

observability options (every engine subcommand):
  --trace-out=PATH  record request tracing spans and write them as Chrome
                    trace-event JSON on exit (chrome://tracing / Perfetto)

serve options:
  --port=N          listen port on 127.0.0.1 (default 8080; 0 = ephemeral,
                    the bound port is printed on the listen line)
  --threads=N       caps the engine's batch fan-out, which no /v1 route
                    uses: requests run one at a time, each request's loops
                    on the process-wide executor, capped by the request's
                    own "threads" field (responses are identical whatever N)
  --max-inflight=N  queued analysis requests admitted at once; the next
                    request gets 503 + Retry-After (default 64)

stats options:
  --file=PATH       JSONL request file to execute first; '-' reads stdin
                    (default: none — report the empty session)
  --threads=N       request-level parallelism for --file
  --format=F        table (default) or json (the machine snapshot; the
                    payload a /metrics endpoint would serve)

mc options (all stochastic paths share --seed; identical seeds reproduce
identical bytes whatever --threads):
  --samples=N       Monte Carlo sample count (default 256, >= 1)
  --seed=S          RNG seed (default 42)
  --sigma-L=R --sigma-o=R --sigma-G=R
                    relative stddev of normal jitter around the base value
                    (default 0 = pinned to the deterministic operating point)
  --dist-L=D --dist-o=D --dist-G=D
                    full distribution specs overriding the sigmas: base,
                    const:V, normal:MEAN,SD, relnormal:SIGMA, uniform:LO,HI
  --edge-sigma=R --edge-bias=R
                    per-edge multiplicative cost noise, the cluster
                    emulator's convention: factor = 1 + bias + |N(0, sigma)|
  --bands=P,...     tolerance band percents (default 1,2,5)

campaign stochastic options (shared --seed; see mc above):
  --mc-samples=N    per-scenario Monte Carlo samples (default 0 = off);
                    adds distributional runtime columns per grid point
  --mc-sigma-L=R --mc-sigma-o=R --mc-sigma-G=R --mc-edge-sigma=R
  --mc-edge-bias=R  jitter knobs of the mc axis (relative, as in mc)
  --probe=emulator  attach the seeded cluster emulator as a per-point
                    measurement column (--probe-runs averaged runs per
                    point, default 5; --noise-sigma run-to-run noise,
                    default 0.003)

campaign options (comma-separated grid axes; scenarios = cross product):
  --apps=A,B,...    proxy applications (default lulesh)
  --ranks=N,M,...   rank counts, each clamped per app (default 8)
  --scales=S,...    iteration-count multipliers (default 0.25)
  --topos=T,...     none, fat-tree, dragonfly (default none); with a
                    physical topology ΔL injects on the per-wire latency
  --nets=P,...      LogGPS presets: cscs, daint (default cscs)
  --L-list=NS,...   --o-list=NS,...  --G-list=NS_PER_BYTE,...
                    LogGPS override axes crossed with --nets; --S applies
                    to every variant; topology shape via the topo options

topo/place options:
  --l-wire=NS --d-switch=NS   per-wire / per-switch latency (default 274/108)
  --ft-radix=K                Fat Tree switch radix (default 8 -> 128 nodes)
  --df-groups=G --df-routers=A --df-hosts=P
                              Dragonfly shape (default 8x4x8 -> 256 nodes)
  --max-rounds=N              (place) Algorithm-3 round cap (default 64)
)";

/// Integer flag values outside int range must be usage errors, not silent
/// truncation through static_cast (a mistyped --ranks=2^32+8 would
/// otherwise analyze ranks=8 with exit 0).
int int_flag(const Cli& cli, const std::string& key, long long fallback) {
  const long long v = cli.get_int(key, fallback);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw UsageError(
        strformat("--%s value %lld out of range", key.c_str(), v));
  }
  return static_cast<int>(v);
}

/// S is graph-shaping (it selects eager vs rendezvous per message), so a
/// negative value must be a usage error — not wrap through the uint64
/// conversion into an "everything eager" threshold that silently analyzes a
/// different execution graph.
std::optional<std::uint64_t> rendezvous_threshold_flag(const Cli& cli) {
  if (!cli.has("S")) return std::nullopt;
  const long long S = cli.get_int("S", 0);
  if (S < 1) throw UsageError(strformat("need --S >= 1 (got %lld)", S));
  return static_cast<std::uint64_t>(S);
}

// ---------------------------------------------------------------------------
// The one flag → request parsing block (satellite of ISSUE 5): every
// subcommand assembles its api request from these shared helpers, so a
// common option is parsed in exactly one place.
// ---------------------------------------------------------------------------

/// The shared app/params option block of every single-scenario subcommand.
/// Clamping, preset resolution, and semantic validation happen in the
/// engine — the CLI only transcribes flags.
api::AppSpec app_spec(const Cli& cli) {
  api::AppSpec spec;
  spec.app = cli.get("app", spec.app);
  spec.ranks = int_flag(cli, "ranks", spec.ranks);
  spec.scale = cli.get_double("scale", spec.scale);
  spec.net = cli.get("net", spec.net);
  if (cli.has("L")) spec.L = cli.get_double("L", 0.0);
  if (cli.has("o")) spec.o = cli.get_double("o", 0.0);
  if (cli.has("G")) spec.G = cli.get_double("G", 0.0);
  spec.S = rendezvous_threshold_flag(cli);
  return spec;
}

/// The shared ΔL-grid option block of analyze/sweep/mc/campaign.
api::GridSpec grid_spec(const Cli& cli) {
  api::GridSpec grid;
  grid.dl_max_us = cli.get_double("dl-max-us", grid.dl_max_us);
  grid.points = int_flag(cli, "points", grid.points);
  return grid;
}

/// The shared output-format option block (--format, and --csv where the
/// subcommand keeps the historical shorthand).
core::OutputFormat output_format(const Cli& cli, bool allow_csv_flag) {
  if (cli.has("format")) {
    return core::parse_output_format(cli.get("format", "table"));
  }
  if (allow_csv_flag && cli.get_bool("csv", false)) {
    return core::OutputFormat::kCsv;
  }
  return core::OutputFormat::kTable;
}

/// The uniform seed flag of every stochastic path (mc, the campaign mc
/// axis, the campaign emulator probe): one spelling, one default, and the
/// documented contract that identical seeds reproduce identical bytes.
std::uint64_t seed_flag(const Cli& cli) {
  const long long v = cli.get_int("seed", 42);
  if (v < 0) {
    throw UsageError(strformat("need --seed >= 0 (got %lld)", v));
  }
  return static_cast<std::uint64_t>(v);
}

/// Comma-separated list flags for the campaign grid axes.  Blank fields are
/// dropped; an effectively empty axis is a usage error.
std::vector<std::string> name_list(const Cli& cli, const std::string& key,
                                   const std::string& fallback) {
  std::vector<std::string> out;
  for (const auto& field : split(cli.get(key, fallback), ',')) {
    const auto f = trim(field);
    if (!f.empty()) out.emplace_back(f);
  }
  if (out.empty()) throw UsageError("empty --" + key + " list");
  return out;
}

std::vector<double> double_list(const Cli& cli, const std::string& key,
                                const std::string& fallback) {
  std::vector<double> out;
  for (const auto& field : name_list(cli, key, fallback)) {
    try {
      out.push_back(parse_double(field));
    } catch (const Error&) {
      throw UsageError("bad --" + key + " value '" + field + "'");
    }
  }
  return out;
}

std::vector<int> int_list(const Cli& cli, const std::string& key,
                          const std::string& fallback) {
  std::vector<int> out;
  for (const auto& field : name_list(cli, key, fallback)) {
    long long v = 0;
    try {
      v = parse_ll(field);
    } catch (const Error&) {
      throw UsageError("bad --" + key + " value '" + field + "'");
    }
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw UsageError(
          strformat("--%s value %lld out of range", key.c_str(), v));
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Subcommands: parse flags into a typed request, execute it on the shared
// engine, render the typed result.  All analysis logic lives behind
// api::Engine; these adapters own nothing but flag spelling.
// ---------------------------------------------------------------------------

int cmd_analyze(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::AnalyzeRequest req;
  req.app = app_spec(cli);
  req.grid = grid_spec(cli);
  req.threads = int_flag(cli, "threads", 0);
  engine.analyze(req).render(output_format(cli, /*allow_csv_flag=*/false),
                             out);
  return 0;
}

int cmd_sweep(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::SweepRequest req;
  req.app = app_spec(cli);
  req.grid = grid_spec(cli);
  req.threads = int_flag(cli, "threads", 0);
  engine.sweep(req).render(output_format(cli, /*allow_csv_flag=*/true), out);
  return 0;
}

int cmd_mc(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::McRequest req;
  req.app = app_spec(cli);
  req.grid = grid_spec(cli);
  req.samples = int_flag(cli, "samples", req.samples);
  req.seed = seed_flag(cli);
  // A present-but-empty --dist-X= must stay an error (an unset shell
  // variable interpolated into the flag), never a silent fall-back to the
  // sigma path: an empty request field means "flag absent".
  const auto dist = [&](const char* key) -> std::string {
    if (!cli.has(key)) return {};
    const std::string spec = cli.get(key, "base");
    if (spec.empty()) {
      throw UsageError(std::string("empty --") + key + " spec (want base, "
                       "const:V, normal:MEAN,SD, relnormal:SIGMA, or "
                       "uniform:LO,HI)");
    }
    return spec;
  };
  req.dist_L = dist("dist-L");
  req.dist_o = dist("dist-o");
  req.dist_G = dist("dist-G");
  req.sigma_L = cli.get_double("sigma-L", 0.0);
  req.sigma_o = cli.get_double("sigma-o", 0.0);
  req.sigma_G = cli.get_double("sigma-G", 0.0);
  req.edge_sigma = cli.get_double("edge-sigma", 0.0);
  req.edge_bias = cli.get_double("edge-bias", 0.0);
  req.bands = double_list(cli, "bands", "1,2,5");
  req.threads = int_flag(cli, "threads", 0);
  engine.mc(req).render(output_format(cli, /*allow_csv_flag=*/false), out);
  return 0;
}

int cmd_campaign(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::CampaignRequest req;
  req.apps = name_list(cli, "apps", "lulesh");
  req.ranks = int_list(cli, "ranks", "8");
  req.scales = double_list(cli, "scales", "0.25");
  req.topologies = name_list(cli, "topos", "none");
  req.nets = name_list(cli, "nets", "cscs");
  if (cli.has("L-list")) req.L_list = name_list(cli, "L-list", "");
  if (cli.has("o-list")) req.o_list = name_list(cli, "o-list", "");
  if (cli.has("G-list")) req.G_list = name_list(cli, "G-list", "");
  req.S = rendezvous_threshold_flag(cli);
  req.grid = grid_spec(cli);
  req.topo.l_wire = cli.get_double("l-wire", req.topo.l_wire);
  req.topo.d_switch = cli.get_double("d-switch", req.topo.d_switch);
  req.topo.ft_radix = int_flag(cli, "ft-radix", req.topo.ft_radix);
  req.topo.df_groups = int_flag(cli, "df-groups", req.topo.df_groups);
  req.topo.df_routers = int_flag(cli, "df-routers", req.topo.df_routers);
  req.topo.df_hosts = int_flag(cli, "df-hosts", req.topo.df_hosts);
  req.mc_samples = int_flag(cli, "mc-samples", 0);
  req.seed = seed_flag(cli);
  req.mc_sigma_L = cli.get_double("mc-sigma-L", 0.0);
  req.mc_sigma_o = cli.get_double("mc-sigma-o", 0.0);
  req.mc_sigma_G = cli.get_double("mc-sigma-G", 0.0);
  req.mc_edge_sigma = cli.get_double("mc-edge-sigma", 0.0);
  req.mc_edge_bias = cli.get_double("mc-edge-bias", 0.0);
  // Probe knobs without the probe are a mistake, not a no-op (the engine
  // cannot see flag presence, so the orphan rule lives here).
  if (!cli.has("probe") &&
      (cli.has("probe-runs") || cli.has("noise-sigma"))) {
    throw UsageError(
        "probe options given without --probe (want --probe=emulator)");
  }
  if (cli.has("probe")) {
    req.probe = cli.get("probe", "");
    if (req.probe.empty()) {
      throw UsageError("unknown --probe '' (want emulator)");
    }
  }
  req.probe_runs = int_flag(cli, "probe-runs", req.probe_runs);
  req.noise_sigma = cli.get_double("noise-sigma", req.noise_sigma);
  req.threads = int_flag(cli, "threads", 0);
  engine.campaign(req).render(output_format(cli, /*allow_csv_flag=*/false),
                              out);
  return 0;
}

int cmd_topo(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::TopoRequest req;
  req.app = app_spec(cli);
  req.l_wire = cli.get_double("l-wire", req.l_wire);
  req.d_switch = cli.get_double("d-switch", req.d_switch);
  req.ft_radix = int_flag(cli, "ft-radix", req.ft_radix);
  req.df_groups = int_flag(cli, "df-groups", req.df_groups);
  req.df_routers = int_flag(cli, "df-routers", req.df_routers);
  req.df_hosts = int_flag(cli, "df-hosts", req.df_hosts);
  engine.topo(req).render(core::OutputFormat::kTable, out);
  return 0;
}

int cmd_place(const Cli& cli, api::Engine& engine, std::ostream& out) {
  api::PlaceRequest req;
  req.app = app_spec(cli);
  req.l_wire = cli.get_double("l-wire", req.l_wire);
  req.d_switch = cli.get_double("d-switch", req.d_switch);
  req.ft_radix = int_flag(cli, "ft-radix", req.ft_radix);
  req.max_rounds = int_flag(cli, "max-rounds", req.max_rounds);
  engine.place(req).render(core::OutputFormat::kTable, out);
  return 0;
}

int cmd_apps(std::ostream& out) {
  for (const auto& name : apps::app_names()) out << name << '\n';
  return 0;
}

int cmd_batch(const Cli& cli, api::Engine& engine, std::ostream& out,
              std::ostream& err) {
  const std::string file = cli.get("file", "-");
  const int threads = int_flag(cli, "threads", 0);
  api::BatchOutcome outcome;
  if (file == "-") {
    outcome = api::serve_jsonl(engine, std::cin, out, threads);
  } else {
    std::ifstream in(file);
    if (!in) throw UsageError("batch: cannot open '" + file + "'");
    outcome = api::serve_jsonl(engine, in, out, threads);
  }
  // The metrics summary goes to stderr: stdout is the JSONL response
  // stream and must stay machine-parseable line by line.
  if (cli.get_bool("metrics", false)) err << engine.metrics_string();
  // Per-request failures are reported in-band as {"error": ...} lines;
  // the process exit code still flags that the batch was not fully clean.
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_stats(const Cli& cli, api::Engine& engine, std::ostream& out) {
  // Optionally replay a JSONL request file through the session first; the
  // responses are discarded (this subcommand reports the instrumentation,
  // `llamp batch` serves the responses).
  if (cli.has("file")) {
    const std::string file = cli.get("file", "-");
    const int threads = int_flag(cli, "threads", 0);
    std::ostringstream discard;
    if (file == "-") {
      api::serve_jsonl(engine, std::cin, discard, threads);
    } else {
      std::ifstream in(file);
      if (!in) throw UsageError("stats: cannot open '" + file + "'");
      api::serve_jsonl(engine, in, discard, threads);
    }
  }
  const core::OutputFormat format =
      output_format(cli, /*allow_csv_flag=*/false);
  if (format == core::OutputFormat::kCsv) {
    throw UsageError("stats: csv output is not supported");
  }
  if (format == core::OutputFormat::kJson) {
    out << engine.metrics_json() << '\n';
  } else {
    out << engine.metrics_string();
  }
  return 0;
}

/// The daemon draining on SIGTERM/SIGINT: the handler may only touch
/// async-signal-safe state, and Server::request_shutdown() is exactly that
/// (an atomic store plus one write(2) to the loop's wakeup pipe).
std::atomic<serve::Server*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int /*signo*/) {
  if (serve::Server* s = g_serve_server.load(std::memory_order_acquire)) {
    s->request_shutdown();
  }
}

int cmd_serve(const Cli& cli, api::Engine& engine, std::ostream& out) {
  serve::Server::Options opts;
  const long long port = cli.get_int("port", 8080);
  if (port < 0 || port > 65535) {
    throw UsageError(strformat("need --port in [0, 65535] (got %lld)", port));
  }
  opts.port = static_cast<std::uint16_t>(port);
  opts.max_inflight = int_flag(cli, "max-inflight", opts.max_inflight);
  if (opts.max_inflight < 1) {
    throw UsageError(
        strformat("need --max-inflight >= 1 (got %d)", opts.max_inflight));
  }

  serve::Server server(opts, serve::engine_routes(engine));
  server.start();

  // Handlers are installed only while this server exists; the previous
  // dispositions come back before the stats line prints.
  g_serve_server.store(&server, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term {};
  struct sigaction old_int {};
  sigaction(SIGTERM, &action, &old_term);
  sigaction(SIGINT, &action, &old_int);

  // The listen line is the daemon's readiness signal (CI and the bench
  // wait for it), and with --port=0 it is how the caller learns the port.
  out << "llamp serve: listening on 127.0.0.1:" << server.port() << "\n";
  out.flush();

  server.join();

  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGINT, &old_int, nullptr);
  g_serve_server.store(nullptr, std::memory_order_release);

  const serve::Server::Stats st = server.stats();
  out << strformat(
      "llamp serve: drained (connections %llu, requests %llu, "
      "responses %llu, rejected %llu, protocol_errors %llu)\n",
      static_cast<unsigned long long>(st.connections),
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.responses),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.protocol_errors));
  return 0;
}

/// Boolean flags: these never take a following value, so a token after them
/// must not be folded — it is a stray positional the validation below should
/// reject, not the flag's value.
constexpr std::string_view kBoolKeys[] = {"csv", "metrics"};

/// The subcommands take no positional arguments, so both `--key=value` and
/// `--key value` are accepted: a bare non-boolean `--key` followed by a
/// non-flag token is folded into the `=` form the shared Cli parser
/// understands.
std::vector<std::string> normalize_args(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--") && arg.find('=') == std::string::npos &&
        i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      const std::string_view key = std::string_view(arg).substr(2);
      if (std::find(std::begin(kBoolKeys), std::end(kBoolKeys), key) ==
          std::end(kBoolKeys)) {
        arg += '=';
        arg += argv[++i];
      }
    }
    args.push_back(std::move(arg));
  }
  return args;
}

constexpr std::string_view kCommonKeys[] = {"app", "ranks", "scale", "net",
                                            "L",   "o",     "G",     "S"};
constexpr std::string_view kGridKeys[] = {"dl-max-us", "points", "threads",
                                          "format"};
constexpr std::string_view kTopoKeys[] = {"l-wire",    "d-switch",
                                          "ft-radix",  "df-groups",
                                          "df-routers", "df-hosts"};
constexpr std::string_view kPlaceKeys[] = {"l-wire", "d-switch", "ft-radix",
                                           "max-rounds"};
constexpr std::string_view kCampaignKeys[] = {
    "apps",       "ranks",       "scales",      "topos",       "nets",
    "L-list",     "o-list",      "G-list",      "S",           "seed",
    "probe",      "probe-runs",  "noise-sigma", "mc-samples",  "mc-sigma-L",
    "mc-sigma-o", "mc-sigma-G",  "mc-edge-sigma", "mc-edge-bias"};
constexpr std::string_view kMcKeys[] = {
    "samples",  "seed",    "sigma-L",    "sigma-o",   "sigma-G", "dist-L",
    "dist-o",   "dist-G",  "edge-sigma", "edge-bias", "bands"};
constexpr std::string_view kBatchKeys[] = {"file", "threads", "metrics"};
constexpr std::string_view kStatsKeys[] = {"file", "threads", "format"};
constexpr std::string_view kServeKeys[] = {"port", "threads", "max-inflight"};

/// Reject misspelled options and stray positionals: a typo'd flag must be a
/// usage error, not a silent fall-back to the default value.  Returns an
/// empty string when every token is a known `--key[=value]`.
std::string first_bad_arg(const std::string& sub,
                          const std::vector<std::string>& args) {
  std::vector<std::string_view> known;
  const auto add = [&](auto& keys) {
    known.insert(known.end(), std::begin(keys), std::end(keys));
  };
  if (sub != "apps" && sub != "campaign" && sub != "batch" &&
      sub != "stats" && sub != "serve") {
    add(kCommonKeys);
  }
  if (sub == "analyze" || sub == "sweep" || sub == "mc") add(kGridKeys);
  if (sub == "mc") add(kMcKeys);
  if (sub == "sweep") known.push_back("csv");
  if (sub == "topo") add(kTopoKeys);
  if (sub == "place") add(kPlaceKeys);
  if (sub == "batch") add(kBatchKeys);
  if (sub == "stats") add(kStatsKeys);
  if (sub == "serve") add(kServeKeys);
  if (sub == "campaign") {
    add(kCampaignKeys);
    add(kGridKeys);
    add(kTopoKeys);
  }
  // Every engine subcommand can record a trace (apps never runs one).
  if (sub != "apps") known.push_back("trace-out");

  for (const std::string& arg : args) {
    if (!starts_with(arg, "--")) return arg;  // stray positional
    const auto eq = arg.find('=');
    const std::string_view key =
        std::string_view(arg).substr(2, eq == std::string::npos ? arg.npos
                                                                : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) return arg;
  }
  return {};
}

/// Whether this invocation asked for JSON output (best effort, for the
/// structured-error satellite: the flag may itself be malformed, in which
/// case errors stay text-only).
bool wants_json(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--format=json") return true;
  }
  return false;
}

/// Report an error on stderr and, in JSON mode, as a structured object on
/// stdout, so `--format=json` consumers never have to scrape stderr.
int report_error(const std::string& sub, const std::string& message,
                 bool usage, bool json, std::ostream& out,
                 std::ostream& err) {
  err << "llamp " << sub << ": " << message << '\n';
  if (json) {
    out << strformat(
        "{\"error\": {\"subcommand\": \"%s\", \"kind\": \"%s\", "
        "\"message\": \"%s\"}}\n",
        json_escape_string(sub).c_str(), usage ? "usage" : "analysis",
        json_escape_string(message).c_str());
  }
  return usage ? 2 : 1;
}

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    // A bare `llamp` is a question, not a mistake: print usage, exit 0.
    out << kUsage;
    return 0;
  }
  const std::string sub = argv[1];
  if (sub == "help" || sub == "--help" || sub == "-h") {
    out << kUsage;
    return 0;
  }
  if (sub == "--version" || sub == "version") {
    out << version_line() << '\n';
    return 0;
  }
  if (sub != "analyze" && sub != "sweep" && sub != "campaign" &&
      sub != "mc" && sub != "batch" && sub != "topo" && sub != "place" &&
      sub != "stats" && sub != "serve" && sub != "apps") {
    err << "llamp: unknown subcommand '" << sub << "'\n\n" << kUsage;
    return 2;
  }
  // `llamp <sub> --help` before any validation: asking for help must work
  // even alongside flags the subcommand would reject.
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return 0;
    }
  }
  const std::vector<std::string> args = normalize_args(argc, argv);
  const bool json = wants_json(args);
  if (const std::string bad = first_bad_arg(sub, args); !bad.empty()) {
    return report_error(
        sub, "unrecognized argument '" + bad + "' (see `llamp help`)",
        /*usage=*/true, json, out, err);
  }
  std::vector<const char*> cargs;
  cargs.push_back("llamp");
  for (const auto& a : args) cargs.push_back(a.c_str());
  const Cli cli(static_cast<int>(cargs.size()), cargs.data());
  try {
    // One engine session per invocation: every subcommand dispatches
    // through it, sharing the graph cache.  --threads caps the engine's
    // batch fan-out; every loop runs on the one process-wide executor,
    // which starts with the first loop that fans out, not here.
    api::Engine engine(
        api::Engine::Options{.threads = int_flag(cli, "threads", 0)});
    // --trace-out: the file opens before any work runs (a bad path must
    // fail fast, not after a long campaign), recording is enabled for the
    // whole dispatch, and the trace is written after it completes —
    // including batch runs with in-band failures (rc 1).
    std::ofstream trace_file;
    if (cli.has("trace-out")) {
      const std::string trace_path = cli.get("trace-out", "");
      if (trace_path.empty()) throw UsageError("empty --trace-out path");
      trace_file.open(trace_path);
      if (!trace_file) {
        throw UsageError("cannot open --trace-out '" + trace_path + "'");
      }
      engine.tracer().enable();
    }
    int rc = 0;
    if (sub == "analyze") {
      rc = cmd_analyze(cli, engine, out);
    } else if (sub == "sweep") {
      rc = cmd_sweep(cli, engine, out);
    } else if (sub == "campaign") {
      rc = cmd_campaign(cli, engine, out);
    } else if (sub == "mc") {
      rc = cmd_mc(cli, engine, out);
    } else if (sub == "batch") {
      rc = cmd_batch(cli, engine, out, err);
    } else if (sub == "topo") {
      rc = cmd_topo(cli, engine, out);
    } else if (sub == "place") {
      rc = cmd_place(cli, engine, out);
    } else if (sub == "stats") {
      rc = cmd_stats(cli, engine, out);
    } else if (sub == "serve") {
      rc = cmd_serve(cli, engine, out);
    } else {
      rc = cmd_apps(out);
    }
    if (trace_file.is_open()) trace_file << engine.trace_json() << '\n';
    return rc;
  } catch (const UsageError& e) {
    return report_error(sub, e.what(), /*usage=*/true, json, out, err);
  } catch (const Error& e) {
    return report_error(sub, e.what(), /*usage=*/false, json, out, err);
  }
}

}  // namespace llamp::tools
