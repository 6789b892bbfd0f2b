#include "core/analyzer.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::core {

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p)
    : LatencyAnalyzer(g, p, std::make_unique<SolverCache>()) {}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                                 std::unique_ptr<SolverCache> own)
    : LatencyAnalyzer(g, p, *own, GraphKey{}) {
  own_ = std::move(own);
}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                                 SolverCache& cache, const GraphKey& key)
    : g_(g),
      params_(p),
      cache_(&cache),
      key_(key),
      entry_(cache.latency(key, g, p)) {
  base_runtime_ = eval(0.0).value;
}

lp::LoweredProblem::SweepEval LatencyAnalyzer::eval(TimeNs delta_L) const {
  lp::LoweredProblem::Cursor cur;
  return entry_->eval(0, params_.L + delta_L, cur);
}

TimeNs LatencyAnalyzer::predict_runtime(TimeNs delta_L) const {
  return eval(delta_L).value;
}

double LatencyAnalyzer::lambda_L(TimeNs delta_L) const {
  return eval(delta_L).slope;
}

double LatencyAnalyzer::rho_L(TimeNs delta_L) const {
  const auto ev = eval(delta_L);
  if (ev.value <= 0.0) return 0.0;
  return ev.at * ev.slope / ev.value;
}

TimeNs LatencyAnalyzer::tolerance(double percent) const {
  if (percent < 0.0) throw Error("tolerance: negative percentage");
  const double budget = base_runtime_ * (1.0 + percent / 100.0);
  return solver().max_param_for_budget(0, budget);
}

TimeNs LatencyAnalyzer::tolerance_delta(double percent) const {
  const TimeNs tol = tolerance(percent);
  if (!std::isfinite(tol)) return tol;
  return tol - params_.L;
}

std::vector<TimeNs> LatencyAnalyzer::critical_latencies(TimeNs lo,
                                                        TimeNs hi) const {
  return solver().critical_values(0, lo, hi);
}

std::vector<lp::LoweredProblem::Segment> LatencyAnalyzer::runtime_curve(
    TimeNs lo, TimeNs hi) const {
  return solver().piecewise(0, lo, hi);
}

double LatencyAnalyzer::lambda_G() const {
  // The two-parameter lowering is the expensive part (it falls back to the
  // CSR walk); share it across requests even though every eval is a dense
  // solve.
  const auto entry = cache_->latency_bandwidth(key_, g_, params_);
  lp::LoweredProblem::Cursor cur;
  return entry->eval(1, params_.G, cur).slope;
}

std::vector<LatencyAnalyzer::SweepPoint> LatencyAnalyzer::sweep(
    const std::vector<TimeNs>& delta_Ls, int threads) const {
  // Validate the whole grid before the loop fans out, so bad input raises
  // a clean Error on the calling thread instead of depending on exception
  // propagation out of the executor.
  for (const TimeNs d : delta_Ls) {
    if (d < 0.0) throw Error("sweep: negative latency injection");
    if (!std::isfinite(d)) {
      throw Error(
          strformat("sweep: latency injection must be finite (got %g)", d));
    }
  }
  const std::size_t n = delta_Ls.size();
  std::vector<SweepPoint> out(n);
  if (n == 0) return out;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = params_.L + delta_Ls[i];

  // Contiguous chunks, one cursor per chunk, each walked through the cache
  // entry.  Every point is bitwise identical to a dense solve at that point
  // whatever served it, so neither the chunk boundaries (the thread count)
  // nor what the cache held beforehand can change the bytes.
  const std::size_t nchunks =
      static_cast<std::size_t>(effective_threads(n, threads));
  std::vector<lp::LoweredProblem::Cursor> curs(nchunks);
  std::vector<lp::LoweredProblem::SweepEval> evals(n);
  parallel_for(nchunks, threads, [&](int, std::size_t c) {
    const std::size_t begin = n * c / nchunks;
    const std::size_t end = n * (c + 1) / nchunks;
    entry_->sweep(0, std::span(xs).subspan(begin, end - begin), curs[c],
                  evals.data() + begin);
  });
  for (std::size_t i = 0; i < n; ++i) {
    const double value = evals[i].value;
    const double lambda = evals[i].slope;
    out[i] = {delta_Ls[i], value, lambda,
              value > 0.0 ? xs[i] * lambda / value : 0.0};
  }
  return out;
}

std::vector<double> LatencyAnalyzer::pairwise_lambda_L() const {
  const int n = g_.nranks();
  const auto space =
      std::make_shared<lp::PairwiseLatencyParamSpace>(params_, n);
  const auto sol = lp::LoweredProblem(g_, space).solve(0, space->base_value(0));
  std::vector<double> mat(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n),
                          0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v =
          sol.gradient[static_cast<std::size_t>(space->pair_index(i, j))];
      mat[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(j)] = v;
      mat[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
          static_cast<std::size_t>(i)] = v;
    }
  }
  return mat;
}

}  // namespace llamp::core
