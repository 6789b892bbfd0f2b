// cold_campaign: a cold study.  Each iteration builds a fresh api::Engine
// and runs one campaign — apps {lulesh, hpcg, milc, icon} x ranks
// {8, 32, 64} x scale 0.25 x topologies {none, fat-tree}, 11-point grid,
// default threads: 24 scenarios over 12 graph builds — on the net the seed
// picks for that iteration.  Graph build, lowering, dense anchor solves and
// campaign fan-out dominate, and every cache lookup misses: the same cache
// layer serve_mixed hits, used the opposite way.

#include <array>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::array<const char*, 2> kNets{"cscs", "daint"};

/// The net of each iteration, drawn from the workload seed.
class NetStream {
 public:
  explicit NetStream(std::uint64_t seed) : rng_(seed, 300) {}
  const char* next() { return kNets[rng_.below(kNets.size())]; }

 private:
  Rng rng_;
};

class ColdCampaign final : public Workload {
 public:
  explicit ColdCampaign(std::uint64_t seed) : nets_(seed) {}

  void reference(Checker& checker) override {
    std::vector<llamp::api::Request> reqs;
    for (const char* net : kNets) {
      reqs.push_back(single_threaded(campaign_request(net)));
    }
    llamp::api::Engine ref(llamp::api::Engine::Options{.threads = 0});
    const auto outcomes = ref.run_batch(reqs, 0);
    for (std::size_t i = 0; i < kNets.size(); ++i) {
      if (!outcomes[i].response) {
        throw llamp::Error("reference " + campaign_key(kNets[i]) + ": " +
                           outcomes[i].error);
      }
      checker.expect(campaign_key(kNets[i]),
                     llamp::api::to_json_line(*outcomes[i].response));
    }
  }

  /// Set-up of a cold study is the engine plus one campaign per net; the
  /// engine is dropped afterwards because every timed iteration is cold.
  double setup(Checker& checker) override {
    release_memory();
    const std::int64_t t0 = now_ns();
    {
      llamp::api::Engine engine;
      for (const char* net : kNets) {
        checker.check(campaign_key(net),
                      engine.campaign(campaign_request(net)).to_json_line());
      }
    }
    return 1e-9 * static_cast<double>(now_ns() - t0);
  }

  Phase timed(double seconds, Checker& checker, SpanLog* spans) override {
    const Usage usage0 = Usage::now();
    Phase p;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t off_clock = 0;  ///< reading engine counters
    do {
      const char* net = nets_.next();
      const std::int64_t t0 = now_ns();
      std::int64_t iter_off = 0;  ///< reading the engine's counters
      try {
        const SpanLog::Scope root(spans, "bench.request");
        std::unique_ptr<llamp::api::Engine> engine;
        {
          const SpanLog::Scope s(spans, "api.engine_new");
          engine = std::make_unique<llamp::api::Engine>();
        }
        llamp::api::CampaignResult res;
        {
          const SpanLog::Scope s(spans, "api.run.campaign");
          res = engine->campaign(campaign_request(net));
        }
        std::string bytes;
        {
          const SpanLog::Scope s(spans, "api.emit");
          bytes = res.to_json_line();
        }
        p.work += static_cast<double>(res.scenarios);
        const std::int64_t c0 = now_ns();
        p.end = EngineCounters::of(*engine);
        p.counters.add(p.end);
        iter_off = now_ns() - c0;
        const SpanLog::Scope s(spans, "api.engine_delete");
        engine.reset();
        checker.check(campaign_key(net), bytes);
      } catch (const std::exception& e) {
        checker.fail(campaign_key(net) + ": " + e.what());
      }
      const std::int64_t t1 = now_ns();
      off_clock += iter_off;
      p.latency_ms.push_back(1e-6 * static_cast<double>(t1 - t0 - iter_off));
      p.done_s.push_back(1e-9 * static_cast<double>(t1 - start - off_clock));
      ++sent_[net == kNets[0] ? 0 : 1];
    } while (now_ns() - off_clock < deadline);
    p.elapsed_s = 1e-9 * static_cast<double>(now_ns() - start - off_clock);
    const Usage usage1 = Usage::now();
    p.usage.cpu_s = usage1.cpu_s - usage0.cpu_s;
    p.usage.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;
    p.requests = p.latency_ms.size();
    return p;
  }

  std::vector<std::string> mix() const override {
    return {llamp::strformat(
        "campaign: 4 apps x 3 ranks x scale 0.25 x 2 topologies "
        "cscs=%llu daint=%llu",
        static_cast<unsigned long long>(sent_[0]),
        static_cast<unsigned long long>(sent_[1]))};
  }

  std::vector<Exchange> exchanges(const Checker& checker) const override {
    std::vector<Exchange> out;
    for (const char* net : kNets) {
      const std::string body = llamp::api::to_json(campaign_request(net));
      out.push_back({client_post_bytes("/v1/campaign", body),
                     checker.reference(campaign_key(net)) + '\n'});
    }
    return out;
  }

 private:
  NetStream nets_;
  std::uint64_t sent_[2] = {0, 0};
};

}  // namespace

llamp::api::CampaignRequest campaign_request(const std::string& net) {
  llamp::api::CampaignRequest r;
  r.apps = {"lulesh", "hpcg", "milc", "icon"};
  r.ranks = {8, 32, 64};
  r.scales = {0.25};
  r.topologies = {"none", "fat-tree"};
  r.nets = {net};
  r.grid.dl_max_us = 100.0;
  r.grid.points = 11;
  return r;
}

std::string campaign_key(const std::string& net) { return "campaign:" + net; }

std::string campaign_first_net(std::uint64_t seed) {
  return NetStream(seed).next();
}

std::unique_ptr<Workload> make_cold_campaign(std::uint64_t seed) {
  return std::make_unique<ColdCampaign>(seed);
}

}  // namespace perfbench
