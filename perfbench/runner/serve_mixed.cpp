// serve_mixed: the daemon in steady state.  Two keep-alive connections in
// a closed loop (each sends its next request only after the previous
// reply, as waiting scripts do) drive an in-process serve::Server over
// engine_routes on an api::Engine with default options.  Every distinct
// request is served once during set-up, so the timed phase is all cache
// hits: p50 is set by the cheap warm sweeps, p99 and throughput by warm
// analyze/topo/place and the wait behind the single executor.

#include <array>
#include <thread>

#include "api/request.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using llamp::serve::HttpRequest;
using llamp::serve::HttpResponse;
using llamp::serve::Server;

struct OpShare {
  const char* op;
  double weight;
  bool gridded;
  const char* run_span;  ///< span name around Engine::run
};
constexpr std::array<OpShare, 4> kOps{{
    {"sweep", 0.70, true, "api.run.sweep"},
    {"analyze", 0.20, true, "api.run.analyze"},
    {"topo", 0.05, false, "api.run.topo"},
    {"place", 0.05, false, "api.run.place"},
}};
struct Scenario {
  const char* app;
  int ranks;
};
constexpr std::array<Scenario, 6> kScenarios{{{"lulesh", 8},
                                              {"lulesh", 27},
                                              {"hpcg", 8},
                                              {"hpcg", 64},
                                              {"milc", 32},
                                              {"icon", 8}}};
constexpr std::array<const char*, 2> kNets{"cscs", "daint"};
constexpr int kConnections = 2;
constexpr std::size_t kPerOp = kScenarios.size() * kNets.size();

/// Index into serve_catalogue() of the next request of one connection.
class Stream {
 public:
  Stream(std::uint64_t seed, int connection) : rng_(seed, 100 + connection) {}
  std::size_t next() {
    const double u = rng_.uniform();
    std::size_t op = 0;
    double acc = kOps[0].weight;
    while (u >= acc && op + 1 < kOps.size()) acc += kOps[++op].weight;
    return op * kPerOp + rng_.below(kPerOp);
  }

 private:
  Rng rng_;
};

Server::Stats operator-(const Server::Stats& a, const Server::Stats& b) {
  Server::Stats d;
  d.connections = a.connections - b.connections;
  d.requests = a.requests - b.requests;
  d.responses = a.responses - b.responses;
  d.rejected = a.rejected - b.rejected;
  d.protocol_errors = a.protocol_errors - b.protocol_errors;
  return d;
}

/// The benchmark-built route handler of traced runs: the same
/// parse_request_for_op -> Engine::run -> to_json_line sequence that
/// engine_routes serves, with a span around each call.  The handler span
/// joins the request the client opened through the X-Bench-Request header.
HttpResponse traced_handler(llamp::api::Engine& engine, const OpShare& op,
                            SpanLog* spans, const HttpRequest& req) {
  std::int64_t request = 0;
  if (const std::string* h = req.header("x-bench-request")) {
    request = std::stoll(*h);
  }
  const SpanLog::Scope handler(spans, "serve.handler", request, request);
  HttpResponse res;
  try {
    llamp::api::Request parsed;
    {
      const SpanLog::Scope s(spans, "api.parse");
      parsed = llamp::api::parse_request_for_op(op.op, req.body);
    }
    llamp::api::Response out;
    {
      const SpanLog::Scope s(spans, op.run_span);
      out = engine.run(parsed);
    }
    const SpanLog::Scope s(spans, "api.emit");
    res.body = llamp::api::to_json_line(out) + '\n';
  } catch (const llamp::UsageError& e) {
    res.status = 400;
    res.body = llamp::serve::error_body("usage", e.what());
  } catch (const llamp::Error& e) {
    res.status = 400;
    res.body = llamp::serve::error_body("analysis", e.what());
  }
  return res;
}

std::vector<Server::Route> traced_routes(llamp::api::Engine& engine,
                                         SpanLog* spans) {
  std::vector<Server::Route> routes;
  for (const OpShare& op : kOps) {
    Server::Route r;
    r.method = "POST";
    r.path = std::string("/v1/") + op.op;
    r.handler = [&engine, &op, spans](const HttpRequest& req) {
      return traced_handler(engine, op, spans, req);
    };
    routes.push_back(std::move(r));
  }
  return routes;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed)
      : seed_(seed), sent_total_(serve_catalogue().size()) {}
  ~ServeMixed() override { stop(); }

  void reference(Checker& checker) override {
    const auto& cat = serve_catalogue();
    std::vector<llamp::api::Request> reqs;
    for (const ServeRequest& r : cat) {
      reqs.push_back(
          single_threaded(llamp::api::parse_request_for_op(r.op, r.body)));
    }
    llamp::api::Engine ref(llamp::api::Engine::Options{.threads = 0});
    const auto outcomes = ref.run_batch(reqs, 0);
    for (std::size_t i = 0; i < cat.size(); ++i) {
      if (!outcomes[i].response) {
        throw llamp::Error("reference " + cat[i].key + ": " +
                           outcomes[i].error);
      }
      checker.expect(cat[i].key,
                     llamp::api::to_json_line(*outcomes[i].response) + '\n');
    }
  }

  double setup(Checker& checker) override {
    stop();
    release_memory();
    const std::int64_t t0 = now_ns();
    engine_ = std::make_unique<llamp::api::Engine>();
    server_ = std::make_unique<Server>(Server::Options{},
                                       llamp::serve::engine_routes(*engine_));
    server_->start();
    llamp::serve::Client client("127.0.0.1", server_->port());
    for (const ServeRequest& r : serve_catalogue()) {
      const auto res = client.post(r.path, r.body);
      if (res.status != 200) {
        checker.fail(llamp::strformat("%s -> HTTP %d", r.key.c_str(),
                                      res.status));
      } else {
        checker.check(r.key, res.body);
      }
    }
    return 1e-9 * static_cast<double>(now_ns() - t0);
  }

  Phase timed(double seconds, Checker& checker, SpanLog* spans) override {
    // Untraced phases go through the production route table; traced ones
    // through the span-recording handler on a second server over the same
    // warm engine.
    std::unique_ptr<Server> traced;
    Server* server = server_.get();
    if (spans) {
      traced = std::make_unique<Server>(Server::Options{},
                                        traced_routes(*engine_, spans));
      traced->start();
      server = traced.get();
    }
    const Server::Stats stats0 = server->stats();
    const EngineCounters counters0 = EngineCounters::of(*engine_);
    const Usage usage0 = Usage::now();

    std::vector<std::vector<double>> lat(kConnections);
    std::vector<std::vector<double>> done(kConnections);
    std::vector<std::vector<std::uint64_t>> sent(
        kConnections, std::vector<std::uint64_t>(serve_catalogue().size()));
    const std::uint16_t port = server->port();
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        drive(c, port, start, deadline, checker, spans, lat[i], done[i],
              sent[i]);
      });
    }
    for (std::thread& t : threads) t.join();

    Phase p;
    p.elapsed_s = 1e-9 * static_cast<double>(now_ns() - start);
    const Usage usage1 = Usage::now();
    p.usage.cpu_s = usage1.cpu_s - usage0.cpu_s;
    p.usage.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;
    for (int c = 0; c < kConnections; ++c) {
      const auto i = static_cast<std::size_t>(c);
      p.latency_ms.insert(p.latency_ms.end(), lat[i].begin(), lat[i].end());
      p.done_s.insert(p.done_s.end(), done[i].begin(), done[i].end());
    }
    p.requests = p.latency_ms.size();
    p.end = EngineCounters::of(*engine_);
    p.counters = p.end.minus(counters0);
    p.server = server->stats() - stats0;
    for (const auto& v : sent) {
      for (std::size_t i = 0; i < v.size(); ++i) sent_total_[i] += v[i];
    }
    return p;  // ~Server drains and joins the traced server
  }

  std::vector<std::string> mix() const override {
    std::vector<std::string> lines;
    const auto& cat = serve_catalogue();
    for (std::size_t op = 0; op < kOps.size(); ++op) {
      std::string line = std::string(kOps[op].op) + ":";
      for (std::size_t i = op * kPerOp; i < (op + 1) * kPerOp; ++i) {
        line += llamp::strformat(
            " %s-%d/%s=%llu", cat[i].app.c_str(), cat[i].ranks,
            cat[i].net.c_str(),
            static_cast<unsigned long long>(sent_total_[i]));
      }
      lines.push_back(line);
    }
    return lines;
  }

  std::vector<Exchange> exchanges(const Checker& checker) const override {
    std::vector<Exchange> out;
    for (const ServeRequest& r : serve_catalogue()) {
      out.push_back(
          {client_post_bytes(r.path, r.body), checker.reference(r.key)});
    }
    return out;
  }

 private:
  void drive(int connection, std::uint16_t port, std::int64_t start,
             std::int64_t deadline, Checker& checker, SpanLog* spans,
             std::vector<double>& lat, std::vector<double>& done,
             std::vector<std::uint64_t>& sent) {
    const auto& cat = serve_catalogue();
    Stream stream(seed_, connection);
    try {
      llamp::serve::Client client("127.0.0.1", port);
      do {
        const ServeRequest& r = cat[stream.next()];
        const std::int64_t t0 = now_ns();
        llamp::serve::Client::Result res;
        {
          const SpanLog::Scope root(spans, "serve.request");
          std::vector<std::string> headers;
          if (spans) {
            headers.push_back(llamp::strformat(
                "X-Bench-Request: %lld", static_cast<long long>(root.id())));
          }
          res = client.request("POST", r.path, r.body, headers);
        }
        const std::int64_t t1 = now_ns();
        lat.push_back(1e-6 * static_cast<double>(t1 - t0));
        done.push_back(1e-9 * static_cast<double>(t1 - start));
        ++sent[static_cast<std::size_t>(&r - cat.data())];
        if (res.status != 200) {
          checker.fail(llamp::strformat("%s -> HTTP %d", r.key.c_str(),
                                        res.status));
        } else {
          checker.check(r.key, res.body);
        }
      } while (now_ns() < deadline);
    } catch (const std::exception& e) {
      checker.fail(std::string("serve_mixed connection: ") + e.what());
    }
  }

  void stop() {
    server_.reset();  // ~Server drains and joins
    engine_.reset();
  }

  std::uint64_t seed_;
  std::unique_ptr<llamp::api::Engine> engine_;
  /// Declared after engine_: the routes reference the engine, so the
  /// server must stop first.
  std::unique_ptr<Server> server_;
  std::vector<std::uint64_t> sent_total_;  ///< timed requests per entry
};

}  // namespace

const std::vector<ServeRequest>& serve_catalogue() {
  static const std::vector<ServeRequest> cat = [] {
    std::vector<ServeRequest> out;
    for (const OpShare& op : kOps) {
      for (const Scenario& s : kScenarios) {
        for (const char* net : kNets) {
          ServeRequest r;
          r.op = op.op;
          r.app = s.app;
          r.ranks = s.ranks;
          r.net = net;
          r.key = llamp::strformat("serve:%s/%s-%d/%s", op.op, s.app, s.ranks,
                                   net);
          r.path = std::string("/v1/") + op.op;
          r.body = llamp::strformat(
              "{\"app\": {\"name\": \"%s\", \"ranks\": %d, \"scale\": 0.05, "
              "\"net\": \"%s\"}",
              s.app, s.ranks, net);
          if (op.gridded) {
            r.body += ", \"grid\": {\"dl_max_us\": 100, \"points\": 11}";
          }
          r.body += '}';
          out.push_back(std::move(r));
        }
      }
    }
    return out;
  }();
  return cat;
}

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace perfbench
