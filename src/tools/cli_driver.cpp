#include "tools/cli_driver.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <span>
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
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::tools {
namespace {

/// The driver's own options: CLI-only, declared as field rows exactly like
/// the request fields (api/fields.hpp), and read by the same reader.
struct Options {
  std::string format;  ///< empty = table, or csv under --csv
  bool csv = false;
  std::string trace_out;
  std::string file;  ///< empty = none (batch reads stdin)
  bool metrics = false;
  int threads = 0;
  int port = 8080;
  int max_inflight = serve::Server::Options{}.max_inflight;
};

using api::kOptional;
using api::option;

constexpr api::Field kFormat =
    option<&Options::format>("format", "table, csv, or json", kOptional);
constexpr api::Field kCsv =
    option<&Options::csv>("csv", "shorthand for --format=csv");
constexpr api::Field kTraceOut = option<&Options::trace_out>(
    "trace-out", "write tracing spans as Chrome trace JSON", kOptional);
constexpr api::Field kBatchFile = option<&Options::file>(
    "file", "JSONL request file ('-' or none: stdin)", kOptional);
constexpr api::Field kThreads = option<&Options::threads>(
    "threads", "request-level parallelism, <= 0 = all cores");
constexpr api::Field kServeThreads = option<&Options::threads>(
    "threads", "batch fan-out cap; no /v1 route uses it");
constexpr api::Field kMetrics = option<&Options::metrics>(
    "metrics", "print the session metrics summary to stderr");
constexpr api::Field kStatsFile = option<&Options::file>(
    "file", "JSONL request file to run first ('-': stdin)", kOptional);
constexpr api::Field kStatsFormat = option<&Options::format>(
    "format", "table or json (the /metrics snapshot)", kOptional);
constexpr api::Field kPort =
    option<&Options::port>("port", "listen port on 127.0.0.1 (0: ephemeral)");
constexpr api::Field kMaxInflight = option<&Options::max_inflight>(
    "max-inflight", "queued requests admitted; more get 503 + Retry-After");

constexpr api::Field kReportOptions[] = {kFormat, kTraceOut};
constexpr api::Field kSweepOptions[] = {kFormat, kCsv, kTraceOut};
constexpr api::Field kTableOptions[] = {kTraceOut};
constexpr api::Field kBatchOptions[] = {kBatchFile, kThreads, kMetrics,
                                        kTraceOut};
constexpr api::Field kStatsOptions[] = {kStatsFile, kThreads, kStatsFormat,
                                        kTraceOut};
constexpr api::Field kServeOptions[] = {kPort, kServeThreads, kMaxInflight,
                                        kTraceOut};

/// A subcommand: its `llamp help` line and its CLI-only options.  The
/// request subcommands (the api ops) take their request's field table too.
struct Subcommand {
  const char* name;
  const char* summary;
  std::span<const api::Field> options;
};

constexpr Subcommand kSubcommands[] = {
    {"analyze", "tolerance report: runtime curve, lambda_L / rho_L, bands,\n"
                "critical latencies, lambda_G", kReportOptions},
    {"sweep", "runtime / lambda_L / rho_L over a ΔL injection grid",
     kSweepOptions},
    {"campaign", "multi-scenario grid: {apps} x {ranks} x {scales} x\n"
                 "{topologies} x {nets x LogGPS override axes} x ΔL grid",
     kReportOptions},
    {"mc", "Monte Carlo uncertainty quantification: LogGPS (and per-edge)\n"
           "noise, distributional runtimes, lambda_L and tolerance bands",
     kReportOptions},
    {"batch", "serve JSONL requests ({\"op\": \"analyze\", ...}, keys as in\n"
              "DESIGN.md §4d), one result line each, in input order",
     kBatchOptions},
    {"topo", "per-wire latency sensitivity, Fat Tree vs Dragonfly",
     kTableOptions},
    {"place", "block vs volume-greedy vs Algorithm-3 rank placement",
     kTableOptions},
    {"stats", "one engine session's metrics summary, optionally after\n"
              "running a JSONL request file", kStatsOptions},
    {"serve", "HTTP/1.1 daemon on loopback: POST /v1/<op> takes the batch\n"
              "request JSON; GET /healthz, /metrics; SIGTERM drains",
     kServeOptions},
    {"apps", "list the registered proxy applications", {}},
};

const Subcommand* find_subcommand(std::string_view name) {
  for (const Subcommand& sub : kSubcommands) {
    if (sub.name == name) return &sub;
  }
  return nullptr;
}

bool is_op(const Subcommand& sub) {
  return !api::request_fields(sub.name).empty();
}

std::string usage() {
  std::string out =
      "llamp — LP-based MPI latency-tolerance analysis "
      "(conf_sc_ShenHCSDGWH24)\n\nusage: llamp <subcommand> [options]\n\n"
      "subcommands:\n";
  for (const Subcommand& sub : kSubcommands) {
    std::string summary = sub.summary;
    for (std::size_t at = summary.find('\n'); at != std::string::npos;
         at = summary.find('\n', at + 1)) {
      summary.insert(at + 1, 12, ' ');
    }
    out += strformat("  %-9s %s\n", sub.name, summary.c_str());
  }
  return out +
         "\n`llamp <subcommand> --help` lists its options and defaults.\n"
         "Exit codes: 0 ok, 1 analysis error, 2 usage error; with\n"
         "--format=json errors also go to stdout as {\"error\": ...}.\n";
}

/// `llamp <sub> --help`: the summary, then every option the subcommand
/// accepts, generated from the field tables.
std::string subcommand_help(const Subcommand& sub) {
  std::string out = strformat("usage: llamp %s [options]\n\n%s\n\noptions:\n",
                              sub.name, sub.summary);
  if (is_op(sub)) out += api::request_flags_help(sub.name);
  const Options defaults;
  out += api::flags_help(sub.options, &defaults);
  if (sub.options.empty()) out += "  (none)\n";
  return out;
}

core::OutputFormat output_format(const Options& opts) {
  if (!opts.format.empty()) return core::parse_output_format(opts.format);
  return opts.csv ? core::OutputFormat::kCsv : core::OutputFormat::kTable;
}

/// Serve the JSONL request file `file` ('-' = stdin) on the session.
api::BatchOutcome serve_file(const std::string& file, api::Engine& engine,
                             std::ostream& out, int threads) {
  if (file == "-") return api::serve_jsonl(engine, std::cin, out, threads);
  std::ifstream in(file);
  if (!in) throw UsageError("cannot open '" + file + "'");
  return api::serve_jsonl(engine, in, out, threads);
}

int cmd_apps(std::ostream& out) {
  for (const auto& name : apps::app_names()) out << name << '\n';
  return 0;
}

int cmd_batch(const Options& opts, api::Engine& engine, std::ostream& out,
              std::ostream& err) {
  const api::BatchOutcome outcome = serve_file(
      opts.file.empty() ? "-" : opts.file, engine, out, opts.threads);
  // The metrics summary goes to stderr: stdout is the JSONL response
  // stream and must stay machine-parseable line by line.
  if (opts.metrics) err << engine.metrics_string();
  // Per-request failures are reported in-band as {"error": ...} lines;
  // the process exit code still flags that the batch was not fully clean.
  return outcome.failures == 0 ? 0 : 1;
}

int cmd_stats(const Options& opts, api::Engine& engine, std::ostream& out) {
  // Optionally replay a JSONL request file through the session first; the
  // responses are discarded (this subcommand reports the instrumentation,
  // `llamp batch` serves the responses).
  if (!opts.file.empty()) {
    std::ostringstream discard;
    serve_file(opts.file, engine, discard, opts.threads);
  }
  const core::OutputFormat format = output_format(opts);
  if (format == core::OutputFormat::kCsv) {
    throw UsageError("csv output is not supported");
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

int cmd_serve(const Options& opts, api::Engine& engine, std::ostream& out) {
  if (opts.port < 0 || opts.port > 65535) {
    throw UsageError(
        strformat("need --port in [0, 65535] (got %d)", opts.port));
  }
  if (opts.max_inflight < 1) {
    throw UsageError(
        strformat("need --max-inflight >= 1 (got %d)", opts.max_inflight));
  }
  serve::Server::Options server_opts;
  server_opts.port = static_cast<std::uint16_t>(opts.port);
  server_opts.max_inflight = opts.max_inflight;

  serve::Server server(server_opts, serve::engine_routes(engine));
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

/// Boolean flags never take a value, so a token after them is a stray
/// positional for the reader to reject, not the flag's value.
bool is_bool_flag(const Subcommand& sub, std::string_view flag) {
  const api::Field* f = api::find_flag(sub.options, flag);
  if (f == nullptr) f = api::find_flag(api::request_fields(sub.name), flag);
  return f != nullptr && f->kind == api::FieldKind::kBool;
}

/// The subcommands take no positional arguments, so both `--key=value` and
/// `--key value` are accepted: a bare non-boolean `--key` followed by a
/// non-flag token is folded into the `=` form.
std::vector<std::string> normalize_args(const Subcommand& sub, int argc,
                                        const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--") && arg.find('=') == std::string::npos &&
        i + 1 < argc && !starts_with(argv[i + 1], "--") &&
        !is_bool_flag(sub, api::flag_of(arg))) {
      arg += '=';
      arg += argv[++i];
    }
    args.push_back(std::move(arg));
  }
  return args;
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
    out << usage();
    return 0;
  }
  const std::string_view name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    out << usage();
    return 0;
  }
  if (name == "--version" || name == "version") {
    out << version_line() << '\n';
    return 0;
  }
  const Subcommand* sub = find_subcommand(name);
  if (sub == nullptr) {
    err << "llamp: unknown subcommand '" << name << "'\n\n" << usage();
    return 2;
  }
  // `llamp <sub> --help` before any validation: asking for help must work
  // even alongside flags the subcommand would reject.
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out << subcommand_help(*sub);
      return 0;
    }
  }
  const std::vector<std::string> args = normalize_args(*sub, argc, argv);
  const bool json = wants_json(args);
  try {
    // CLI-only options go to the driver, everything else to the request;
    // a typo'd flag or a stray positional is rejected by whichever reader
    // it reaches.
    Options opts;
    std::optional<api::Request> req;
    if (is_op(*sub)) {
      std::vector<std::string> option_args;
      std::vector<std::string> request_args;
      for (const std::string& arg : args) {
        const bool option =
            api::find_flag(sub->options, api::flag_of(arg)) != nullptr;
        (option ? option_args : request_args).push_back(arg);
      }
      api::read_flags(sub->options, &opts, option_args);
      req = api::request_from_flags(sub->name, request_args);
    } else {
      api::read_flags(sub->options, &opts, args);
    }
    // One engine session per invocation, sharing the graph cache.
    // --threads caps the engine's batch fan-out; every loop runs on the one
    // process-wide executor, which starts with the first loop that fans
    // out, not here.
    api::Engine engine(api::Engine::Options{.threads = opts.threads});
    // --trace-out: the file opens before any work runs (a bad path must
    // fail fast, not after a long campaign), recording is enabled for the
    // whole dispatch, and the trace is written after it completes —
    // including batch runs with in-band failures (rc 1).
    std::ofstream trace_file;
    if (!opts.trace_out.empty()) {
      trace_file.open(opts.trace_out);
      if (!trace_file) {
        throw UsageError("cannot open --trace-out '" + opts.trace_out + "'");
      }
      engine.tracer().enable();
    }
    int rc = 0;
    if (req) {
      api::render(engine.run(*req), output_format(opts), out);
    } else if (name == "batch") {
      rc = cmd_batch(opts, engine, out, err);
    } else if (name == "stats") {
      rc = cmd_stats(opts, engine, out);
    } else if (name == "serve") {
      rc = cmd_serve(opts, engine, out);
    } else {
      rc = cmd_apps(out);
    }
    if (trace_file.is_open()) trace_file << engine.trace_json() << '\n';
    return rc;
  } catch (const UsageError& e) {
    return report_error(sub->name, e.what(), /*usage=*/true, json, out, err);
  } catch (const Error& e) {
    return report_error(sub->name, e.what(), /*usage=*/false, json, out, err);
  }
}

}  // namespace llamp::tools
