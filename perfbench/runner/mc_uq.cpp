// mc_uq: Monte Carlo uncertainty studies.  One caller thread calls
// Engine::mc on hpcg-64 (scale 0.05, 11-point grid), alternating a fast
// path request (sigma_L 0.1, 1024 samples: the shared-operating-point
// batch kernel) with a general path request (sigma_L 0.1 plus edge_sigma
// 0.003, 128 samples: per-sample solves).  lp/batch, stoch and
// util/parallel do almost all the work; no wire or graph build is timed.
// Each request runs on 2 threads: half of a 4-vCPU share, so the figures
// measure the program rather than how a busy host schedules 4 threads.

#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Distinct requests the timed loop cycles through (fast/general pairs).
/// The cost of an MC request depends on its seed (over 30 seeds, one fast
/// request cost 1.6x the typical one), so a run averages over 8 pairs.
constexpr std::size_t kPool = 16;
/// Threads per request (McRequest::threads).
constexpr int kThreads = 2;

class McUq final : public Workload {
 public:
  explicit McUq(std::uint64_t seed) : seeds_(mc_seeds(seed)) {
    for (std::size_t i = 0; i < kPool; ++i) {
      requests_.push_back(mc_request(i % 2 == 1, seeds_[i]));
    }
  }

  void reference(Checker& checker) override {
    std::vector<llamp::api::Request> reqs;
    for (const auto& r : requests_) reqs.push_back(single_threaded(r));
    llamp::api::Engine ref(llamp::api::Engine::Options{.threads = 0});
    const auto outcomes = ref.run_batch(reqs, 0);
    for (std::size_t i = 0; i < kPool; ++i) {
      if (!outcomes[i].response) {
        throw llamp::Error("reference " + mc_key(i) + ": " + outcomes[i].error);
      }
      checker.expect(mc_key(i),
                     llamp::api::to_json_line(*outcomes[i].response));
    }
  }

  double setup(Checker& checker) override {
    engine_.reset();
    release_memory();
    const std::int64_t t0 = now_ns();
    engine_ = std::make_unique<llamp::api::Engine>();
    // Every distinct request once: graph build, lowering, first passes.
    for (std::size_t i = 0; i < kPool; ++i) run_one(i, checker, nullptr);
    return 1e-9 * static_cast<double>(now_ns() - t0);
  }

  Phase timed(double seconds, Checker& checker, SpanLog* spans) override {
    const EngineCounters counters0 = EngineCounters::of(*engine_);
    const Usage usage0 = Usage::now();
    Phase p;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t i = 0;
    // Whole fast/general pairs only, so every phase has the same mix.  The
    // two kinds differ in cost, so latency is taken per pair: a per-call
    // median would sit between two modes.
    do {
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < 2; ++k, i = (i + 1) % kPool) {
        run_one(i, checker, spans);
        p.work += requests_[i].samples;
        ++sent_[i % 2];
      }
      const std::int64_t t1 = now_ns();
      p.latency_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
      p.done_s.push_back(1e-9 * static_cast<double>(t1 - start));
    } while (now_ns() < deadline);
    p.elapsed_s = 1e-9 * static_cast<double>(now_ns() - start);
    const Usage usage1 = Usage::now();
    p.usage.cpu_s = usage1.cpu_s - usage0.cpu_s;
    p.usage.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;
    p.requests_per_sample = 2;
    p.group_min = kPool / 2;  // one cycle through the pool per group
    p.requests = 2 * p.latency_ms.size();
    p.end = EngineCounters::of(*engine_);
    p.counters = p.end.minus(counters0);
    return p;
  }

  std::vector<std::string> mix() const override {
    return {llamp::strformat(
        "mc: hpcg-64/cscs fast(sigma_L=0.1, 1024 samples)=%llu "
        "general(sigma_L=0.1, edge_sigma=0.003, 128 samples)=%llu "
        "[%zu distinct seeds]",
        static_cast<unsigned long long>(sent_[0]),
        static_cast<unsigned long long>(sent_[1]), kPool)};
  }

  std::vector<Exchange> exchanges(const Checker& checker) const override {
    std::vector<Exchange> out;
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::string body = llamp::api::to_json(requests_[i]);
      out.push_back({client_post_bytes("/v1/mc", body),
                     checker.reference(mc_key(i)) + '\n'});
    }
    return out;
  }

 private:
  void run_one(std::size_t i, Checker& checker, SpanLog* spans) {
    try {
      const SpanLog::Scope root(spans, "bench.request");
      llamp::api::McResult res;
      {
        const SpanLog::Scope s(spans, "api.run.mc");
        res = engine_->mc(requests_[i]);
      }
      std::string bytes;
      {
        const SpanLog::Scope s(spans, "api.emit");
        bytes = res.to_json_line();
      }
      checker.check(mc_key(i), bytes);
    } catch (const std::exception& e) {
      checker.fail(mc_key(i) + ": " + e.what());
    }
  }

  std::vector<std::uint64_t> seeds_;
  std::vector<llamp::api::McRequest> requests_;
  std::unique_ptr<llamp::api::Engine> engine_;
  std::uint64_t sent_[2] = {0, 0};
};

}  // namespace

llamp::api::McRequest mc_request(bool general, std::uint64_t seed) {
  llamp::api::McRequest r;
  r.app.app = "hpcg";
  r.app.ranks = 64;
  r.app.scale = 0.05;
  r.grid.dl_max_us = 100.0;
  r.grid.points = 11;
  r.sigma_L = 0.1;
  r.samples = general ? 128 : 1024;
  r.edge_sigma = general ? 0.003 : 0.0;
  r.seed = seed;
  r.threads = kThreads;
  return r;
}

std::vector<std::uint64_t> mc_seeds(std::uint64_t workload_seed) {
  Rng rng(workload_seed, 200);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kPool; ++i) seeds.push_back(rng.next() >> 16);
  return seeds;
}

std::string mc_key(std::size_t i) { return llamp::strformat("mc:%zu", i); }

std::unique_ptr<Workload> make_mc_uq(std::uint64_t seed) {
  return std::make_unique<McUq>(seed);
}

}  // namespace perfbench
