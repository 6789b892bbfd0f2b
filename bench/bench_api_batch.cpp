// Throughput harness for the api::Engine serving path: requests/sec on a
// repeated mixed workload, contrasting
//
//   * cold sessions — a fresh engine per request, the pre-api cost model
//     where every consumer rebuilt its graphs; and
//   * one warm session — a single engine serving the whole stream, graphs
//     resolved through the session cache (the `llamp batch` shape);
//
// each single-threaded and at hardware concurrency.  The speedup is the
// structural argument for the engine façade: steady-state requests skip
// trace generation + schedgen entirely.
//
// A second section benchmarks the solver cache specifically: repeated and
// nearby single-point queries against one large scenario (hpcg at 64
// ranks), cold (a fresh engine per query — graphs, lowerings, and anchors
// all rebuilt) vs warm (one engine in steady state, where a query is a
// cache hit plus a critical-path replay).  Every warm response is
// byte-compared against its cold counterpart in every output format, and
// the warm batch is additionally compared across thread counts — a
// mismatch is a hard failure (exit 1), because the caches must never be
// observable in the output bytes.  `--out=FILE` writes the point-query
// results as JSON (the committed BENCH_warm.json).
//
//   $ ./bench_api_batch [--rounds=8] [--quick] [--out=BENCH_warm.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/request.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::vector<llamp::api::Request> mixed_round() {
  using namespace llamp::api;
  std::vector<Request> reqs;
  for (const char* app : {"lulesh", "hpcg", "milc", "icon"}) {
    SweepRequest sweep;
    sweep.app.app = app;
    sweep.app.scale = 0.02;
    sweep.grid = {20.0, 5};
    sweep.threads = 1;
    reqs.emplace_back(sweep);

    AnalyzeRequest analyze;
    analyze.app.app = app;
    analyze.app.scale = 0.02;
    analyze.grid = {20.0, 3};
    analyze.threads = 1;
    reqs.emplace_back(analyze);
  }
  return reqs;
}

double requests_per_sec(std::size_t nreq, double ms) {
  return ms > 0.0 ? 1e3 * static_cast<double>(nreq) / ms : 0.0;
}

// --- solver warm-start section -------------------------------------------

// Repeated + nearby ΔL point queries against one hpcg-64 scenario: the
// request stream a long-lived session actually sees (the same operating
// point probed again, or probed a hair away).  Values in microseconds.
constexpr double kPointDlsUs[] = {20.0, 20.0, 20.5,  21.0, 20.0,   60.0,
                                  60.25, 20.0, 80.0, 20.125, 60.0, 80.5};

llamp::api::SweepRequest point_query(double dl_us) {
  llamp::api::SweepRequest req;
  req.app.app = "hpcg";
  req.app.ranks = 64;
  req.app.scale = 0.05;
  // The smallest grid the engine accepts: {0, dl} — the dl endpoint is the
  // point being queried, the 0 endpoint replays from the base anchor.
  req.grid = {dl_us, 2};
  req.threads = 1;
  return req;
}

// Every byte surface of a response, concatenated: the three render
// formats plus the JSONL machine line.
std::string response_bytes(const llamp::api::Response& res) {
  std::ostringstream all;
  for (const auto format : {llamp::core::OutputFormat::kTable,
                            llamp::core::OutputFormat::kCsv,
                            llamp::core::OutputFormat::kJson}) {
    llamp::api::render(res, format, all);
    all << '\n';
  }
  all << llamp::api::to_json_line(res) << '\n';
  return all.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace llamp;
  const Cli cli(argc, argv);
  const int rounds = static_cast<int>(
      cli.get_int("rounds", cli.get_bool("quick", false) ? 2 : 8));
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  const std::vector<api::Request> round = mixed_round();
  std::vector<api::Request> stream;
  for (int r = 0; r < rounds; ++r) {
    stream.insert(stream.end(), round.begin(), round.end());
  }

  std::printf("api batch throughput: %zu requests (%d rounds x %zu), hw=%d\n",
              stream.size(), rounds, round.size(), hw);

  // Cold sessions: every request pays graph construction.
  {
    const auto t0 = Clock::now();
    for (const api::Request& req : stream) {
      api::Engine engine(api::Engine::Options{.threads = 1});
      (void)engine.run(req);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    std::printf("  cold sessions, 1 thread:  %7.1f ms  (%.1f req/s)\n", ms,
                requests_per_sec(stream.size(), ms));
  }

  // One warm session, serial and parallel.
  for (const int threads : {1, hw}) {
    api::Engine engine(api::Engine::Options{.threads = threads});
    // Warm the cache outside the timed window: steady-state serving is
    // the regime the engine exists for.
    (void)engine.run_batch(round, threads);
    const auto t0 = Clock::now();
    const auto outcomes = engine.run_batch(stream, threads);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    std::size_t failures = 0;
    for (const auto& o : outcomes) {
      if (!o.response) ++failures;
    }
    if (failures != 0) {
      std::fprintf(stderr, "bench_api_batch: %zu failed requests\n",
                   failures);
      return 1;
    }
    const auto stats = engine.cache_stats();
    std::printf(
        "  warm session, %2d thread%s %7.1f ms  (%.1f req/s, cache %zu "
        "built / %zu hits)\n",
        threads, threads == 1 ? ": " : "s:", ms,
        requests_per_sec(stream.size(), ms), stats.built, stats.hits);
  }

  // --- solver warm-start: repeated/nearby point queries, hpcg-64 ---------
  const int point_rounds = cli.get_bool("quick", false) ? 1 : 4;
  std::vector<api::Request> point_stream;
  for (int r = 0; r < point_rounds; ++r) {
    for (const double dl : kPointDlsUs) point_stream.emplace_back(point_query(dl));
  }
  std::printf("\nsolver warm-start: %zu point queries (hpcg ranks=64, "
              "repeated/nearby dl)\n", point_stream.size());

  // Cold: a fresh engine per query — graph, lowering, and anchor state all
  // rebuilt.  Responses are kept (rendered outside the timed window) as the
  // byte-equality reference for every warm pass below.
  std::vector<api::Response> cold_responses;
  cold_responses.reserve(point_stream.size());
  double cold_ms = 0.0;
  for (const api::Request& req : point_stream) {
    api::Engine engine(api::Engine::Options{.threads = 1});
    const auto t0 = Clock::now();
    cold_responses.emplace_back(engine.run(req));
    cold_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }
  std::vector<std::string> cold_bytes;
  cold_bytes.reserve(cold_responses.size());
  for (const auto& res : cold_responses) cold_bytes.push_back(response_bytes(res));

  // Warm: one engine in steady state.  The untimed first pass pays the
  // builds; the timed pass is pure cache hit + anchor replay.
  api::Engine warm_engine(api::Engine::Options{.threads = hw});
  for (const api::Request& req : point_stream) (void)warm_engine.run(req);
  const auto warm_t0 = Clock::now();
  std::vector<api::Response> warm_responses;
  warm_responses.reserve(point_stream.size());
  for (const api::Request& req : point_stream) {
    warm_responses.emplace_back(warm_engine.run(req));
  }
  const double warm_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - warm_t0).count();

  // Determinism wall: warm bytes == cold bytes, every surface, and the
  // parallel warm batch == both.
  for (std::size_t i = 0; i < point_stream.size(); ++i) {
    if (response_bytes(warm_responses[i]) != cold_bytes[i]) {
      std::fprintf(stderr,
                   "bench_api_batch: warm/cold byte mismatch on query %zu\n", i);
      return 1;
    }
  }
  const auto batch_outcomes = warm_engine.run_batch(point_stream, hw);
  for (std::size_t i = 0; i < batch_outcomes.size(); ++i) {
    if (!batch_outcomes[i].response ||
        response_bytes(*batch_outcomes[i].response) != cold_bytes[i]) {
      std::fprintf(
          stderr,
          "bench_api_batch: parallel warm byte mismatch on query %zu\n", i);
      return 1;
    }
  }

  const auto sstats = warm_engine.solver_cache_stats();
  const double cold_ns = 1e6 * cold_ms / static_cast<double>(point_stream.size());
  const double warm_ns = 1e6 * warm_ms / static_cast<double>(point_stream.size());
  const double speedup = warm_ns > 0.0 ? cold_ns / warm_ns : 0.0;
  std::printf("  cold (fresh engine/query): %11.1f ns/query\n", cold_ns);
  std::printf("  warm (steady-state):       %11.1f ns/query\n", warm_ns);
  std::printf("  speedup: %.1fx   (solvers: built=%zu hits=%zu "
              "anchor_solves=%zu replays=%zu anchor_bytes=%zu; bytes "
              "verified warm==cold, serial==parallel)\n",
              speedup, sstats.built, sstats.hits, sstats.anchor_solves,
              sstats.replays, sstats.anchor_bytes);

  const std::string out_path = cli.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "bench_api_batch: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << "{\n"
        << "  \"benchmark\": \"api_warm_start\",\n"
        << "  \"schema_version\": 2,\n"
        << "  \"config\": {\n"
        << "    \"app\": \"hpcg\", \"ranks\": 64, \"scale\": 0.05,\n"
        << "    \"point_queries\": " << point_stream.size()
        << ", \"distinct_dl_values\": " << std::size(kPointDlsUs)
        << ", \"hardware_threads\": " << hw << "\n"
        << "  },\n"
        << "  \"cold\": {\n"
        << "    \"description\": \"fresh engine per query: graph build + "
           "lowering + dense anchor solve\",\n"
        << "    \"ns_per_query\": " << std::llround(cold_ns) << "\n"
        << "  },\n"
        << "  \"warm\": {\n"
        << "    \"description\": \"steady-state session: graph-cache hit + "
           "solver-cache hit + critical-path replay\",\n"
        << "    \"ns_per_query\": " << std::llround(warm_ns) << ",\n"
        << "    \"solver_cache\": {\"built\": " << sstats.built
        << ", \"hits\": " << sstats.hits
        << ", \"anchor_solves\": " << sstats.anchor_solves
        << ", \"replays\": " << sstats.replays << "}\n"
        << "  },\n"
        << "  \"speedup\": " << std::llround(speedup) << ",\n"
        << "  \"bytes_verified\": \"warm == cold on every output format and "
           "the JSONL line, serial and parallel\"\n"
        << "}\n";
    std::printf("  wrote %s\n", out_path.c_str());
  }
  return 0;
}
