// perfbench_runner: runs one workload of the repo benchmark and prints its
// metrics.  perfbench/run.py builds this binary and is the entry point:
//
//   perfbench_runner --workload serve_mixed|mc_uq|cold_campaign --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//                    [--record-out FILE] [--commit C] [--source-digest D]
//                    [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 runs half the time untraced and half traced, then the layer
// probes, and reports the per-layer metrics.  The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is non-zero when any result failed the output check.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/build_info.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Args {
  Options opts;
  std::string record_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench_runner: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.opts.workload = value();
    } else if (flag == "--seed") {
      a.opts.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.opts.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.opts.trace = value() == "1";
    } else if (flag == "--trace-out") {
      a.opts.trace_out = value();
    } else if (flag == "--record-out") {
      a.record_out = value();
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--source-digest") {
      a.source_digest = value();
    } else if (flag == "--corrupt-reference") {
      a.opts.corrupt_reference = true;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (a.opts.workload.empty()) usage("--workload is required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop trailing NULs
    return std::string(llamp::trim(s));
  }
#endif
  return "unknown";
}

/// Machine and build fingerprint recorded with every result set: numbers
/// from different machines or builds must never be compared silently.
std::string fingerprint_json(const Args& a) {
  const llamp::BuildInfo& b = llamp::build_info();
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llamp::strformat(
      "{\"nproc\": %u, \"cpu\": \"%s\", \"llc_kb\": %ld, \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\"}",
      std::thread::hardware_concurrency(),
      llamp::json_escape_string(cpu_model()).c_str(), llc > 0 ? llc / 1024 : 0,
      llamp::json_escape_string(b.compiler).c_str(),
      llamp::json_escape_string(b.build_type).c_str(),
      llamp::json_escape_string(a.commit).c_str(),
      llamp::json_escape_string(a.source_digest).c_str());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void set(Sheet& sheet, const std::string& name, double value,
         const std::string& unit) {
  sheet[name] = {value, unit};
}

/// Run the reference pass in a child process and load its bytes, so the
/// reference engine never counts in this process's peak_rss_mb.  Called
/// before this process starts any thread, which keeps fork() safe.
void reference_in_child(const Options& opts, Checker& checker) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      Checker child;
      make_workload(opts.workload, opts.seed)->reference(child);
      const std::string data = child.serialize();
      for (std::size_t off = 0; off < data.size();) {
        const ssize_t n = write(fds[1], data.data() + off, data.size() - off);
        if (n <= 0) throw std::runtime_error("write failed");
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_runner: reference pass: %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string data;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    data.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference pass failed");
  }
  checker.load(data);
}

/// End-to-end figures of one timed phase.  The requests, in completion
/// order, are split into up to 10 consecutive groups of at least
/// Phase::group_min (16; one cycle through the request pool in mc_uq); each
/// figure is the median over the groups, so a transient stall of a shared
/// machine moves one group rather than the figure.  That holds for p99 too:
/// it is the median of the group p99s, and a group of fewer than 100
/// samples has its maximum as p99.
struct Summary {
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  std::size_t groups = 0;
};

Summary summarize(const Phase& p) {
  std::vector<std::size_t> order(p.done_s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.done_s[a] < p.done_s[b];
  });
  Summary s;
  s.samples = p.latency_ms.size();
  s.groups = std::clamp<std::size_t>(s.samples / p.group_min, 1, 10);
  std::vector<double> rates, p50s, p99s;
  double t_prev = 0.0;
  for (std::size_t g = 0; g < s.groups; ++g) {
    const std::size_t lo = g * s.samples / s.groups;
    const std::size_t hi = (g + 1) * s.samples / s.groups;
    std::vector<double> lat;
    for (std::size_t i = lo; i < hi; ++i) lat.push_back(p.latency_ms[order[i]]);
    const double t_end = p.done_s[order[hi - 1]];
    const auto n = static_cast<double>((hi - lo) * p.requests_per_sample);
    rates.push_back(ratio(n, t_end - t_prev));
    t_prev = t_end;
    p50s.push_back(quantile(lat, 0.50));
    p99s.push_back(quantile(lat, 0.99));
  }
  s.req_per_s = median(rates);
  s.p50_ms = median(p50s);
  s.p99_ms = median(p99s);
  return s;
}

void end_to_end(Workload& w, const Options& opts, Checker& checker,
                Sheet& sheet, std::vector<std::string>& notes) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupReps; ++k) setups.push_back(w.setup(checker));
  const Phase p = w.timed(opts.seconds, checker, nullptr);
  set(sheet, "setup_s", median(setups), "s");
  const Summary sum = summarize(p);
  set(sheet, "req_per_s", sum.req_per_s, "1/s");
  set(sheet, "latency_p50_ms", sum.p50_ms, "ms");
  set(sheet, "latency_p99_ms", sum.p99_ms, "ms");
  set(sheet, "peak_rss_mb", peak_rss_mb(), "MB");
  notes.push_back(llamp::strformat(
      "samples: %zu timed %s in %.3f s, summarized over %zu groups; %zu "
      "set-ups",
      sum.samples, opts.workload == "mc_uq" ? "fast/general pairs" : "requests",
      p.elapsed_s, sum.groups, setups.size()));
  // Metrics tied to one workload, each a fixed multiple of req_per_s there
  // (the mix is fixed), so BENCHMARK.json carries req_per_s instead.
  const double per_request = ratio(p.work, static_cast<double>(p.requests));
  if (opts.workload == "mc_uq") {
    notes.push_back(llamp::strformat("samples_per_s %.6g 1/s",
                                     sum.req_per_s * per_request));
  } else if (opts.workload == "cold_campaign") {
    notes.push_back(llamp::strformat("scenarios_per_s %.6g 1/s",
                                     sum.req_per_s * per_request));
  }
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The layer a span name belongs to.  api.run.* spans cover Engine::run,
/// whose interior (core, lp/stoch, apps/schedgen, util/parallel, obs)
/// cannot be split from outside the program; the layer probes time those
/// layers directly instead.
std::string layer_of(const std::string& span) {
  if (starts_with(span, "api.run.")) return "engine";
  const auto dot = span.find('.');
  return span.substr(0, dot);
}

void per_layer(Workload& w, const Options& opts, Checker& checker,
               Sheet& sheet, std::vector<std::string>& notes) {
  w.setup(checker);
  const Phase base = w.timed(opts.seconds / 2, checker, nullptr);
  SpanLog traffic;
  const Phase traced = w.timed(opts.seconds / 2, checker, &traffic);
  SpanLog probes;
  const ProbeResult pr = run_probes(opts, w, checker, probes);
  for (const std::string& warning : pr.warnings) notes.push_back(warning);
  // A probe that no longer reproduces the engine's bytes times code the
  // engine does not run; smoke mode fails on any.  Not a program failure,
  // so not in error_rate.
  set(sheet, "probe.mismatches", static_cast<double>(pr.warnings.size()),
      "count");

  auto all = traffic.spans();
  const auto probe_spans = probes.spans();
  all.insert(all.end(), probe_spans.begin(), probe_spans.end());
  const SpanStats st = SpanStats::of(all);
  const auto durations = [&](const std::string& name) {
    const auto it = st.duration_ns.find(name);
    return it == st.duration_ns.end() ? std::vector<double>{} : it->second;
  };
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const auto mean = [&](const std::vector<double>& v) {
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
  };

  // serve: client send -> handler start, handler return -> client receipt,
  // and the wire-layer functions on this run's own bytes.
  std::map<std::int64_t, const SpanLog::Span*> by_id;
  for (const auto& s : all) by_id[s.id] = &s;
  std::vector<double> pre_us, post_us, emit_us;
  for (const auto& s : all) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    const std::string parent_name = parent->second->name;
    if (std::string(s.name) == "serve.handler" &&
        parent_name == "serve.request") {
      pre_us.push_back(1e-3 * static_cast<double>(s.start_ns -
                                                  parent->second->start_ns));
      post_us.push_back(
          1e-3 * static_cast<double>(parent->second->end_ns - s.end_ns));
    } else if (std::string(s.name) == "api.emit" &&
               parent_name == "serve.handler") {
      emit_us.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  set(sheet, "serve.pre_handler_us.p50", quantile(pre_us, 0.50), "us");
  set(sheet, "serve.pre_handler_us.p99", quantile(pre_us, 0.99), "us");
  set(sheet, "serve.post_handler_us.p50", quantile(post_us, 0.50), "us");
  set(sheet, "serve.http_parse_ns", median(durations("serve.http_parse")),
      "ns");
  set(sheet, "serve.http_serialize_ns",
            median(durations("serve.http_serialize")), "ns");
  const Phase& serve_phase = opts.workload == "serve_mixed"
                                 ? traced
                                 : pr.slices.at("serve_mixed");
  set(sheet, "serve.requests", static_cast<double>(serve_phase.server.requests),
            "count");
  set(sheet, "serve.rejected", static_cast<double>(serve_phase.server.rejected),
            "count");
  set(sheet, "serve.protocol_errors",
            static_cast<double>(serve_phase.server.protocol_errors), "count");

  // api: request parse and result emit on the serve path, Engine::run per op.
  set(sheet, "api.parse_us", 1e-3 * median(durations("api.parse")), "us");
  set(sheet, "api.emit_us", median(emit_us), "us");
  for (const char* op :
       {"analyze", "sweep", "topo", "place", "mc", "campaign"}) {
    const auto d = durations(std::string("api.run.") + op);
    set(sheet, llamp::strformat("api.run_us.%s.p50", op),
              1e-3 * quantile(d, 0.50), "us");
    set(sheet, llamp::strformat("api.run_us.%s.p99", op),
              1e-3 * quantile(d, 0.99), "us");
  }

  // core: cache counters of this workload's own engine over the traced
  // phase, analyzer/report/campaign from the direct probes.
  const EngineCounters& c = traced.counters;
  set(sheet, "graph_cache.hit_ratio",
            ratio(c["graph_cache.hits"],
                  c["graph_cache.hits"] + c["graph_cache.built"]),
            "ratio");
  set(sheet, "graph_cache.bytes", traced.end["graph_cache.bytes"], "bytes");
  set(sheet, "solver_cache.replay_ratio",
            ratio(c["solver_cache.replays"],
                  c["solver_cache.replays"] + c["solver_cache.anchor_solves"]),
            "ratio");
  set(sheet, "solver_cache.anchor_bytes",
      traced.end["solver_cache.anchor_bytes"],
            "bytes");
  set(sheet, "analyzer.sweep_us", 1e-3 * mean(durations("core.analyzer.sweep")),
            "us");
  set(sheet, "analyzer.tolerance_us",
            1e-3 * mean(durations("core.analyzer.tolerance")), "us");
  set(sheet, "analyzer.lambda_G_us",
            1e-3 * mean(durations("core.analyzer.lambda_G")), "us");
  set(sheet, "analyzer.critical_latencies_us",
            1e-3 * mean(durations("core.analyzer.critical_latencies")), "us");
  set(sheet, "report.make_report_us",
            1e-3 * mean(durations("core.report.make_report")), "us");
  set(sheet, "campaign.run_ms", 1e-6 * median(durations("core.campaign.run")),
            "ms");

  // apps/schedgen: one campaign's distinct graphs, built three ways.
  set(sheet, "graph.build_ms", 1e-6 * sum(durations("core.graph_cache.get")),
            "ms");
  set(sheet, "apps.trace_ms", 1e-6 * sum(durations("apps.make_app_trace")),
      "ms");
  set(sheet, "schedgen.build_ms", 1e-6 * sum(durations("schedgen.build_graph")),
            "ms");
  set(sheet, "solver_cache.lower_ms",
            1e-6 * sum(durations("core.solver_cache.latency")), "ms");

  // lp/stoch.
  set(sheet, "mc.run_ms.fast", 1e-6 * median(durations("stoch.run_mc.fast")),
            "ms");
  set(sheet, "mc.run_ms.general",
            1e-6 * median(durations("stoch.run_mc.general")), "ms");
  const Phase& mc_phase =
      opts.workload == "mc_uq" ? traced : pr.slices.at("mc_uq");
  set(sheet, "mc.lane_occupancy",
            ratio(mc_phase.counters["mc.lane_samples"],
                  mc_phase.counters["mc.lane_slots"]),
            "ratio");

  // util/parallel: whole-process accounting over the untraced half.
  const double nproc = std::max(1u, std::thread::hardware_concurrency());
  set(sheet, "proc.cpu_util", ratio(base.usage.cpu_s, base.elapsed_s * nproc),
            "ratio");
  set(sheet, "proc.ctx_switches_per_op",
            ratio(base.usage.ctx_switches, static_cast<double>(base.requests)),
            "count");
  set(sheet, "pool.tasks", base.counters["pool.tasks"], "count");
  notes.push_back(llamp::strformat(
      "pool.busy_ns %.0f ns over the untraced half (the engine pool runs "
      "only run_batch; intra-request loops spawn their own threads)",
      base.counters["pool.busy_ns"]));

  // obs: what recording spans cost the end-to-end rate.
  set(sheet, "trace.overhead_frac",
            1.0 - ratio(traced.req_per_s(), base.req_per_s()), "frac");

  // Each layer's share of the blocking path of this workload's requests.
  const SpanStats ts = SpanStats::of(traffic.spans());
  std::map<std::string, double> layer_self;
  for (const auto& [name, self] : ts.self_ns) {
    layer_self[layer_of(name)] += self;
  }
  for (const char* layer : {"serve", "api", "engine"}) {
    set(sheet, std::string("share.") + layer,
        ratio(layer_self[layer], ts.root_ns),
              "frac");
  }

  notes.push_back(llamp::strformat(
      "traced half: %llu requests, %.6g req/s; untraced half: %llu requests, "
      "%.6g req/s",
      static_cast<unsigned long long>(traced.requests), traced.req_per_s(),
      static_cast<unsigned long long>(base.requests), base.req_per_s()));
  notes.push_back("self time by span (workload traffic + layer probes):");
  for (const auto& [name, self] : st.self_ns) {
    const auto& d = st.duration_ns.at(name);
    notes.push_back(llamp::strformat(
        "  %-34s layer %-9s n=%-6zu self %10.3f ms  p50 %10.3f us",
        name.c_str(),
        layer_of(name).c_str(), d.size(), 1e-6 * self, 1e-3 * median(d)));
  }
  if (!opts.trace_out.empty()) {
    std::ofstream(opts.trace_out) << "{\"traffic\": " << traffic.chrome_json()
                                  << ", \"probes\": " << probes.chrome_json()
                                  << "}\n";
    notes.push_back("spans written to " + opts.trace_out);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  fix_mmap_threshold();
  const Args args = parse_args(argc, argv);
  const Options& opts = args.opts;
  Sheet sheet;
  std::vector<std::string> notes;
  Checker checker;
  std::vector<std::string> mix;
  const std::string fingerprint = fingerprint_json(args);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::fflush(stdout);
  try {
    reference_in_child(opts, checker);
    auto w = make_workload(opts.workload, opts.seed);
    if (opts.corrupt_reference) checker.corrupt_first();
    if (opts.trace) {
      per_layer(*w, opts, checker, sheet, notes);
    } else {
      end_to_end(*w, opts, checker, sheet, notes);
    }
    mix = w->mix();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : mix) std::printf("mix %s\n", line.c_str());
  for (const std::string& line : notes) std::printf("%s\n", line.c_str());
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(checker.failed()),
                    static_cast<double>(checker.attempted())),
              static_cast<unsigned long long>(checker.failed()),
              static_cast<unsigned long long>(checker.attempted()));
  std::string metrics;
  for (const auto& [name, vu] : sheet) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    metrics += llamp::strformat(
        "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
        metrics.empty() ? "" : ", ",
        name.c_str(), llamp::json_double(vu.first).c_str(), vu.second.c_str());
  }
  const bool correct = checker.failed() == 0;
  const std::string result = llamp::strformat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      correct ? "true" : "false",
      static_cast<unsigned long long>(checker.attempted()),
      static_cast<unsigned long long>(checker.failed()), metrics.c_str());
  if (!args.record_out.empty()) {
    std::string mix_json;
    for (const std::string& line : mix) {
      mix_json += (mix_json.empty() ? "\"" : ", \"") +
                  llamp::json_escape_string(line) + "\"";
    }
    std::ofstream(args.record_out)
        << llamp::strformat(
               "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
               "\"trace\": %d, \"fingerprint\": %s, \"mix\": [%s], "
               "\"result\": %s}\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed),
               llamp::json_double(opts.seconds).c_str(), opts.trace ? 1 : 0,
               fingerprint.c_str(), mix_json.c_str(), result.c_str());
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
