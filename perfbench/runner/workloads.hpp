#pragma once

// The three workloads of the repo benchmark.  Each one generates its
// requests from the workload seed, computes their threads-1 reference
// bytes, sets itself up from nothing, and runs timed phases with or
// without spans.  The program receives only the generated requests.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Engine counters and gauges (Engine::metrics_json()), by name.
struct EngineCounters {
  std::map<std::string, double> values;
  static EngineCounters of(const llamp::api::Engine& engine);
  double operator[](const std::string& name) const;
  /// this - before, per name (gauges included: bytes grow monotonically).
  EngineCounters minus(const EngineCounters& before) const;
  void add(const EngineCounters& other);
};

/// What one timed phase measured.
struct Phase {
  double elapsed_s = 0.0;
  std::uint64_t requests = 0;
  double work = 0.0;  ///< MC samples (mc_uq) or scenarios (cold_campaign)
  /// Per request; per fast/general pair in mc_uq, whose two kinds differ
  /// in cost.
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion time of each latency sample
  std::uint64_t requests_per_sample = 1;  ///< 2 in mc_uq
  /// Fewest latency samples in one summary group (see summarize()).
  std::size_t group_min = 16;
  Usage usage;              ///< CPU and context switches during the phase
  EngineCounters counters;  ///< engine counter deltas over the phase
  EngineCounters end;       ///< engine counters when the phase ended
  llamp::serve::Server::Stats server;  ///< serve_mixed: server stat deltas
  double req_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(requests) / elapsed_s : 0.0;
  }
};

/// One raw HTTP request as serve::Client sends it, and the response body
/// the server answers it with (the wire-layer probes run on these).
struct Exchange {
  std::string request_bytes;
  std::string response_body;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Reference bytes of every distinct request: a fresh api::Engine runs
  /// each one at threads 1 before anything is timed.
  virtual void reference(Checker& checker) = 0;
  /// Set up from nothing — fresh engine (and server), then one pass over
  /// every distinct request — and keep that state for timed().  Returns
  /// the wall seconds taken.
  virtual double setup(Checker& checker) = 0;
  /// Drive the workload for `seconds` (at least one request or pair) on
  /// the state setup() left.  Spans are recorded when `spans` is non-null.
  virtual Phase timed(double seconds, Checker& checker, SpanLog* spans) = 0;
  /// Generated mix: request count per op x input, one line per op.
  virtual std::vector<std::string> mix() const = 0;
  /// The distinct requests as HTTP exchanges.
  virtual std::vector<Exchange> exchanges(const Checker& checker) const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

// -- Request shapes shared with the layer probes --------------------------

/// serve_mixed's catalogue: op x scenario x net, all scale 0.05 with an
/// 11-point grid to 100 us on the gridded ops.
struct ServeRequest {
  std::string op;
  std::string app;
  int ranks = 0;
  std::string net;
  std::string key;   ///< output-check key, e.g. "serve:sweep/hpcg-64/daint"
  std::string path;  ///< "/v1/<op>"
  std::string body;  ///< request JSON without "threads", as clients send
};
const std::vector<ServeRequest>& serve_catalogue();
constexpr double kServeScale = 0.05;

/// mc_uq's two request kinds on hpcg-64.
llamp::api::McRequest mc_request(bool general, std::uint64_t seed);
/// The per-request seeds mc_uq draws from its workload seed; request i is
/// the fast kind when i is even and the general kind when it is odd.
std::vector<std::uint64_t> mc_seeds(std::uint64_t workload_seed);
std::string mc_key(std::size_t i);

/// cold_campaign's campaign on one net.
llamp::api::CampaignRequest campaign_request(const std::string& net);
std::string campaign_key(const std::string& net);
/// The net of cold_campaign's first iteration under `seed`.
std::string campaign_first_net(std::uint64_t seed);

/// Layer probes of a traced run (probes.cpp): short traced slices of the
/// other workloads, then direct calls into single layers.  Spans go to
/// `spans`; slice results count in `checker`.
struct ProbeResult {
  std::map<std::string, Phase> slices;  ///< by workload name
  std::vector<std::string> warnings;
};
ProbeResult run_probes(const Options& opts, const Workload& main,
                       Checker& checker, SpanLog& spans);

/// The bytes serve::Client sends for one POST.
std::string client_post_bytes(const std::string& path,
                              const std::string& body);

}  // namespace perfbench
