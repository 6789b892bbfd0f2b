#include "core/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::core {

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p)
    : g_(g),
      params_(p),
      space_(std::make_shared<lp::LatencyParamSpace>(p)),
      solver_(g, space_) {
  base_runtime_ = solver_.solve(0, params_.L).value;
}

LatencyAnalyzer::LatencyAnalyzer(const graph::Graph& g, loggops::Params p,
                                 SolverCache& cache, const GraphKey& key)
    : g_(g),
      params_(p),
      cache_(&cache),
      key_(key),
      warm_(cache.latency(key, g, p)),
      space_(warm_->problem()->space_ptr()),
      solver_(warm_->problem()) {
  lp::ParametricSolver::Workspace ws;
  base_runtime_ = warm_->eval(0, params_.L, ws).value;
}

TimeNs LatencyAnalyzer::predict_runtime(TimeNs delta_L) const {
  if (warm_) {
    lp::ParametricSolver::Workspace ws;
    return warm_->eval(0, params_.L + delta_L, ws).value;
  }
  return solver_.solve(0, params_.L + delta_L).value;
}

double LatencyAnalyzer::lambda_L(TimeNs delta_L) const {
  if (warm_) {
    lp::ParametricSolver::Workspace ws;
    return warm_->eval(0, params_.L + delta_L, ws).slope;
  }
  return solver_.solve(0, params_.L + delta_L).gradient[0];
}

double LatencyAnalyzer::rho_L(TimeNs delta_L) const {
  if (warm_) {
    lp::ParametricSolver::Workspace ws;
    const auto ev = warm_->eval(0, params_.L + delta_L, ws);
    if (ev.value <= 0.0) return 0.0;
    return (params_.L + delta_L) * ev.slope / ev.value;
  }
  const auto sol = solver_.solve(0, params_.L + delta_L);
  if (sol.value <= 0.0) return 0.0;
  return (params_.L + delta_L) * sol.gradient[0] / sol.value;
}

TimeNs LatencyAnalyzer::tolerance(double percent) const {
  if (percent < 0.0) throw Error("tolerance: negative percentage");
  const double budget = base_runtime_ * (1.0 + percent / 100.0);
  return solver_.max_param_for_budget(0, budget);
}

TimeNs LatencyAnalyzer::tolerance_delta(double percent) const {
  const TimeNs tol = tolerance(percent);
  if (!std::isfinite(tol)) return tol;
  return tol - params_.L;
}

std::vector<TimeNs> LatencyAnalyzer::critical_latencies(TimeNs lo,
                                                        TimeNs hi) const {
  return solver_.critical_values(0, lo, hi);
}

std::vector<lp::ParametricSolver::Segment> LatencyAnalyzer::runtime_curve(
    TimeNs lo, TimeNs hi) const {
  return solver_.piecewise(0, lo, hi);
}

double LatencyAnalyzer::lambda_G() const {
  if (cache_) {
    // The two-parameter lowering is the expensive part (it falls back to
    // the CSR walk); share it across requests even though every eval is a
    // dense solve.
    const auto entry = cache_->latency_bandwidth(key_, g_, params_);
    lp::ParametricSolver::Workspace ws;
    return entry->eval(1, params_.G, ws).slope;
  }
  const auto space =
      std::make_shared<lp::LatencyBandwidthParamSpace>(params_);
  lp::ParametricSolver s(g_, space);
  return s.solve(1, params_.G).gradient[1];
}

std::vector<LatencyAnalyzer::SweepPoint> LatencyAnalyzer::sweep(
    const std::vector<TimeNs>& delta_Ls, int threads) const {
  // Validate the whole grid before the loop fans out, so bad input raises
  // a clean Error on the calling thread instead of depending on exception
  // propagation out of the executor.
  bool ascending = true;
  for (std::size_t i = 0; i < delta_Ls.size(); ++i) {
    const TimeNs d = delta_Ls[i];
    if (d < 0.0) throw Error("sweep: negative latency injection");
    if (!std::isfinite(d)) {
      throw Error(
          strformat("sweep: latency injection must be finite (got %g)", d));
    }
    if (i > 0 && delta_Ls[i - 1] > d) ascending = false;
  }
  const std::size_t n = delta_Ls.size();
  std::vector<SweepPoint> out(n);
  if (n == 0) return out;
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = params_.L + delta_Ls[i];
  const auto fill = [&](std::size_t i, double value, double lambda) {
    out[i] = {delta_Ls[i], value, lambda,
              value > 0.0 ? xs[i] * lambda / value : 0.0};
  };

  if (warm_) {
    // Warm path: every point is served through the session cache — anchor
    // replay when a published stability zone covers it, dense solve (which
    // publishes its anchor) otherwise.  Replay is bitwise identical to a
    // dense solve, so these bytes match the cold paths below exactly,
    // whatever the cache held beforehand and whatever the thread count.
    // Works for ascending and unordered grids alike.
    const int nworkers = effective_threads(n, threads);
    std::vector<lp::ParametricSolver::Workspace> wss(
        static_cast<std::size_t>(nworkers));
    parallel_for(n, threads, [&](int w, std::size_t i) {
      const auto ev =
          warm_->eval(0, xs[i], wss[static_cast<std::size_t>(w)]);
      fill(i, ev.value, ev.slope);
    });
    return out;
  }
  if (ascending) {
    // Segment walk over contiguous chunks, one workspace per chunk.  Every
    // point's value is bitwise identical to a dense solve at that point, so
    // the chunk boundaries (and therefore the thread count) cannot change
    // the bytes of the result.
    const std::size_t nchunks =
        static_cast<std::size_t>(effective_threads(n, threads));
    std::vector<lp::ParametricSolver::Workspace> wss(nchunks);
    std::vector<lp::ParametricSolver::SweepEval> evals(n);
    parallel_for(nchunks, threads, [&](int, std::size_t c) {
      const std::size_t begin = n * c / nchunks;
      const std::size_t end = n * (c + 1) / nchunks;
      solver_.sweep(0, std::span(xs).subspan(begin, end - begin), wss[c],
                    evals.data() + begin);
    });
    for (std::size_t i = 0; i < n; ++i) fill(i, evals[i].value, evals[i].slope);
  } else {
    // Unordered grids take the batched dense fallback: lane groups of
    // kBatchWidth points per forward pass, one batch cursor per worker,
    // still allocation-free in steady state and still bitwise identical to
    // per-point dense solves (the batch kernel's contract).
    const std::size_t groups =
        (n + lp::kBatchWidth - 1) / lp::kBatchWidth;
    const int nworkers = effective_threads(groups, threads);
    std::vector<lp::ParametricSolver::BatchCursor> bcs(
        static_cast<std::size_t>(nworkers));
    std::vector<lp::ParametricSolver::BatchPoint> pts(n);
    parallel_for(groups, threads, [&](int w, std::size_t gi) {
      const std::size_t lo = gi * lp::kBatchWidth;
      const std::size_t lanes = std::min(lp::kBatchWidth, n - lo);
      solver_.solve_batch(0, xs.data() + lo, lanes,
                          bcs[static_cast<std::size_t>(w)], pts.data() + lo);
    });
    for (std::size_t i = 0; i < n; ++i) fill(i, pts[i].value, pts[i].slope);
  }
  return out;
}

std::vector<double> LatencyAnalyzer::pairwise_lambda_L() const {
  const int n = g_.nranks();
  const auto space =
      std::make_shared<lp::PairwiseLatencyParamSpace>(params_, n);
  lp::ParametricSolver s(g_, space);
  const auto sol = s.solve(0, space->base_value(0));
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
