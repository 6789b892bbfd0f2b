#include "stoch/mc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>

#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace llamp::stoch {
namespace {

/// Reduction block size: samples are evaluated in blocks of at most this
/// many, their metric rows buffered by in-block index, then folded into the
/// streaming summaries in ascending sample order on the calling thread.
/// The buffer is the only N-independent-but-nonconstant state, so memory is
/// O(kBlock * metrics) whatever the sample count — and because sample i's
/// draws depend only on (seed, i) and the fold order is always 0..N-1, the
/// thread count can never change a single bit of the result.
constexpr std::size_t kBlock = 1024;

/// Per-worker scratch reused across every chunk, sample or lane group a
/// worker serves, plus the worker's share of the run's work counters.
struct WorkerScratch {
  lp::LoweredProblem::Cursor ws;
  lp::LoweredProblem::BatchCursor bc;
  // General path: one sample's grid points, edge factors and batch lanes.
  std::vector<double> xs;
  std::vector<double> factors;
  std::vector<lp::LoweredProblem::BatchPoint> pts;
  // Band searches: per (band, lane) budgets and tolerances; the fast path
  // also keeps one lane group's anchors and starting solves.
  std::vector<double> budgets;
  std::vector<double> tols;
  std::vector<double> lane_from;
  std::vector<lp::LoweredProblem::BatchPoint> lane_start;
  std::uint64_t anchor_solves = 0;
  std::uint64_t replays = 0;
  std::uint64_t search_passes = 0;
};

/// Write the ascending permutation of `xs` into `order` (order[q] = index
/// of the q-th smallest) and the values in that order into `sorted`, the
/// order a segment walk needs.  Both outputs must be xs.size() long.
/// Equal values may come in either order: sweep() evaluates every point
/// bitwise like solve(), so ties cannot change a byte.
void sort_points(std::span<const double> xs, std::span<std::uint32_t> order,
                 std::span<double> sorted) {
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return xs[a] < xs[b];
  });
  for (std::size_t q = 0; q < order.size(); ++q) sorted[q] = xs[order[q]];
}

/// The tolerance emitted for one band: the distance from the anchor, or
/// +inf when the search never crosses the budget.
double tolerance_delta(double tol, double from) {
  return std::isfinite(tol) ? tol - from : tol;
}

}  // namespace

void McSpec::validate() const {
  if (samples < 1) {
    throw UsageError(strformat("need samples >= 1 (got %d)", samples));
  }
  L.validate("L");
  o.validate("o");
  G.validate("G");
  noise.validate();
  if (delta_Ls.empty()) throw UsageError("empty ΔL grid");
  for (const TimeNs d : delta_Ls) {
    if (!(d >= 0.0) || !std::isfinite(d)) {
      throw UsageError(strformat(
          "ΔL grid values must be finite and >= 0 (got %g)", d));
    }
  }
  for (const double pct : band_percents) {
    if (!(pct >= 0.0) || !std::isfinite(pct)) {
      throw UsageError(strformat(
          "tolerance band percent must be finite and >= 0 (got %g)",
          pct));
    }
  }
}

void Summary::add(double x) {
  if (!std::isfinite(x)) {
    ++unbounded_;
    return;
  }
  stats_.add(x);
  q05_.add(x);
  q50_.add(x);
  q95_.add(x);
}

std::optional<loggops::Params> shared_operating_point(
    const McSpec& spec, const loggops::Params& base) {
  if (!(spec.o.degenerate() && spec.G.degenerate() &&
        spec.noise.degenerate())) {
    return std::nullopt;
  }
  // Degenerate distributions return a fixed value whatever the generator
  // state, so the shared operating point can be read with a throwaway Rng
  // (same construction run_mc's samples use, so the bytes agree).
  Rng probe_rng(spec.seed);
  loggops::Params shared = base;
  shared.o = spec.o.sample(probe_rng, base.o);
  shared.G = spec.G.sample(probe_rng, base.G);
  return shared;
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec) {
  return run_mc(g, base, spec, nullptr);
}

McResult run_mc(const graph::Graph& g, const loggops::Params& base,
                const McSpec& spec,
                std::shared_ptr<const lp::LoweredProblem> lowered) {
  spec.validate();
  base.validate();

  const std::size_t npts = spec.delta_Ls.size();
  const std::size_t nbands = spec.band_percents.size();

  // Fast path: when o, G, and the edge noise are all degenerate, every
  // sample analyzes the same parametric LP and only the evaluation point
  // (the sampled L) moves — one solver, built once, serves every worker
  // (its queries are const; all scratch lives in per-worker cursors).
  // Otherwise each sample lowers its own perturbed space, which is what
  // the paper's "re-measure the operating point and redo the analysis"
  // amounts to.
  const std::optional<loggops::Params> shared_point =
      shared_operating_point(spec, base);
  const bool shared_solver_path = shared_point.has_value();

  std::shared_ptr<const lp::LoweredProblem> shared;
  std::shared_ptr<const lp::GraphLayout> layout;
  if (shared_solver_path) {
    const loggops::Params& shared_params = *shared_point;
    shared_params.validate();
    // Adopt the caller's cached lowering only if it is verifiably this
    // run's problem: same graph object and the exact shared operating
    // point.  A mismatched handle falls through to a fresh lowering, so a
    // stale cache entry can never change a byte of the result.
    const lp::LatencyParamSpace* cached_space =
        lowered ? dynamic_cast<const lp::LatencyParamSpace*>(
                      &lowered->space())
                : nullptr;
    const auto same_point = [&](const loggops::Params& cp) {
      return cp.L == shared_params.L && cp.o == shared_params.o &&
             cp.g == shared_params.g && cp.G == shared_params.G &&
             cp.O == shared_params.O && cp.S == shared_params.S;
    };
    if (cached_space != nullptr && &lowered->graph() == &g &&
        same_point(cached_space->params())) {
      shared = std::move(lowered);
    } else {
      shared = std::make_shared<const lp::LoweredProblem>(
          g, std::make_shared<lp::LatencyParamSpace>(shared_params));
    }
  } else {
    // The graph-only half of every per-sample lowering, built once.
    layout = std::make_shared<const lp::GraphLayout>(g);
  }

  // One metric row per sample: runtime at every ΔL, then λ_L, ρ_L, then the
  // per-band ΔL tolerances.
  const std::size_t stride = npts + 2 + nbands;
  const std::size_t total = static_cast<std::size_t>(spec.samples);
  const std::size_t block = std::min(total, kBlock);
  std::vector<double> buffer(block * stride);

  // The widest loop decides the slots: the fast path's walk chunks over
  // block * npts points (its lane-group loop has fewer indices), the
  // general path's samples.
  const int nworkers = effective_threads(
      shared_solver_path ? block * npts : block, spec.threads);
  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(nworkers));
  for (WorkerScratch& s : scratch) {
    if (shared_solver_path) {
      s.budgets.resize(nbands * lp::kBatchWidth);
      s.tols.resize(nbands * lp::kBatchWidth);
      s.lane_from.resize(lp::kBatchWidth);
      s.lane_start.resize(lp::kBatchWidth);
    } else {
      s.xs.resize(npts);
      s.pts.resize(npts - 1);
      s.budgets.resize(nbands);
      s.tols.resize(nbands);
    }
  }
  // Fast path, per block: every sample's grid points, their walk order,
  // and the walk's evaluations.
  std::vector<double> points;
  std::vector<std::uint32_t> order;
  std::vector<double> sorted;
  std::vector<lp::LoweredProblem::SweepEval> evals;
  if (shared_solver_path) {
    points.resize(block * npts);
    order.resize(block * npts);
    sorted.resize(block * npts);
    evals.resize(block * npts);
  }

  McResult res;
  res.base = base;
  res.samples = spec.samples;
  res.batched = shared_solver_path;
  res.batch_width = static_cast<int>(lp::kBatchWidth);
  res.delta_Ls = spec.delta_Ls;
  res.runtime.resize(npts);
  res.bands.resize(nbands);
  for (std::size_t b = 0; b < nbands; ++b) {
    res.bands[b].percent = spec.band_percents[b];
  }

  // Ordered reduction: ascending sample index, metric-major within a
  // sample — the one place observations meet the streaming sketches, and
  // identical whichever evaluation path filled the buffer.
  const auto fold_block = [&](std::size_t bn) {
    for (std::size_t j = 0; j < bn; ++j) {
      const double* row = buffer.data() + j * stride;
      for (std::size_t k = 0; k < npts; ++k) res.runtime[k].add(row[k]);
      res.lambda_L.add(row[npts]);
      res.rho_L.add(row[npts + 1]);
      for (std::size_t b = 0; b < nbands; ++b) {
        res.bands[b].tolerance_delta.add(row[npts + 2 + b]);
      }
    }
  };

  for (std::size_t block_start = 0; block_start < total;
       block_start += block) {
    const std::size_t bn = std::min(block, total - block_start);
    if (shared_solver_path) {
      // Sample j's point k is L_j + ΔL_k; L is each sample's first draw
      // (o/G are degenerate here, pinned in the shared operating point).
      for (std::size_t j = 0; j < bn; ++j) {
        Rng rng(sample_seed(spec.seed, block_start + j));
        const double L = spec.L.sample(rng, base.L);
        for (std::size_t k = 0; k < npts; ++k) {
          points[j * npts + k] = L + spec.delta_Ls[k];
        }
      }
      // Every point of the block in one ascending order, walked in
      // contiguous chunks (one per worker slot, each with its own cursor):
      // one anchor solve per basis piece a chunk crosses, replays for the
      // rest.  Walk results are bitwise solve()'s, so neither the chunking
      // nor the thread count can change a byte.
      const std::size_t m = bn * npts;
      sort_points({points.data(), m}, {order.data(), m}, {sorted.data(), m});
      const std::size_t chunks =
          static_cast<std::size_t>(effective_threads(m, spec.threads));
      parallel_for(chunks, spec.threads, [&](int w, std::size_t c) {
        WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
        const std::size_t lo = c * m / chunks;
        const std::size_t hi = (c + 1) * m / chunks;
        lp::LoweredProblem::SweepStats st;
        shared->sweep(0, {sorted.data() + lo, hi - lo}, sc.ws,
                      evals.data() + lo, &st);
        sc.anchor_solves += st.anchor_solves;
        sc.replays += st.replays;
      });
      for (std::size_t q = 0; q < m; ++q) {
        const std::size_t j = order[q] / npts;
        const std::size_t k = order[q] % npts;
        buffer[j * stride + k] = evals[q].value;
        if (k == 0) buffer[j * stride + npts] = evals[q].slope;  // λ_L
      }
      for (std::size_t j = 0; j < bn; ++j) {
        double* out = buffer.data() + j * stride;
        const double value0 = out[0];
        out[npts + 1] =
            value0 > 0.0 ? points[j * npts] * out[npts] / value0 : 0.0;
      }
      // Band searches, one lane group of samples at a time: one ranged
      // pass at the anchors L_j + ΔL_0 is the starting solve every band's
      // lockstep search resumes from.
      const std::size_t groups =
          nbands == 0 ? 0 : (bn + lp::kBatchWidth - 1) / lp::kBatchWidth;
      parallel_for(groups, spec.threads, [&](int w, std::size_t gi) {
        WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
        const std::size_t g0 = gi * lp::kBatchWidth;
        const std::size_t lanes = std::min(lp::kBatchWidth, bn - g0);
        // llamp-lint: hot-path begin
        // Steady state: preallocated lane scratch only.
        for (std::size_t l = 0; l < lanes; ++l) {
          sc.lane_from[l] = points[(g0 + l) * npts];
        }
        shared->solve_batch_ranges(0, sc.lane_from.data(), lanes, sc.bc,
                                   sc.lane_start.data());
        ++sc.search_passes;
        for (std::size_t b = 0; b < nbands; ++b) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sc.budgets[b * lanes + l] = buffer[(g0 + l) * stride] *
                                        (1.0 + spec.band_percents[b] / 100.0);
          }
        }
        sc.search_passes += shared->max_param_for_budgets_from_batch(
            0, sc.lane_from.data(), sc.lane_start.data(), lanes,
            sc.budgets.data(), nbands, sc.bc, sc.tols.data());
        for (std::size_t b = 0; b < nbands; ++b) {
          for (std::size_t l = 0; l < lanes; ++l) {
            buffer[(g0 + l) * stride + npts + 2 + b] =
                tolerance_delta(sc.tols[b * lanes + l], sc.lane_from[l]);
          }
        }
        // llamp-lint: hot-path end
      });
      fold_block(bn);
      continue;
    }
    // The general path: each sample lowers its own perturbed space over
    // the run's shared layout.  Per-sample cost is imbalanced (the drawn
    // operating point reshapes every solve); parallel_for's one-at-a-time
    // claiming lets a slot that drew expensive samples simply claim fewer.
    parallel_for(bn, spec.threads, [&](int w, std::size_t j) {
      WorkerScratch& sc = scratch[static_cast<std::size_t>(w)];
      Rng rng(sample_seed(spec.seed, block_start + j));

      // Fixed in-sample draw order: L, o, G, then edge factors by edge id.
      loggops::Params p = base;
      p.L = spec.L.sample(rng, base.L);
      p.o = spec.o.sample(rng, base.o);
      p.G = spec.G.sample(rng, base.G);
      std::shared_ptr<const lp::ParamSpace> sp =
          std::make_shared<lp::LatencyParamSpace>(p);
      if (!spec.noise.degenerate()) {
        sc.factors.resize(g.num_edges());
        for (double& f : sc.factors) f = spec.noise.factor(rng);
        sp = std::make_shared<lp::PerturbedParamSpace>(std::move(sp),
                                                       sc.factors);
      }
      const lp::LoweredProblem solver(g, std::move(sp), layout);

      // llamp-lint: hot-path begin
      // Steady state: every per-sample evaluation below runs against
      // preallocated per-worker scratch; only the lowering above
      // allocates.  The anchor L + ΔL_0 gets the one dense solve with its
      // range: λ_L, ρ_L and the starting solve of every band search.  The
      // other grid points need only T, so they share one plain batch pass
      // over this sample's problem (its lanes are grid points, not
      // samples: no per-lane cost arrays).  A segment walk would rarely
      // replay here — per-edge noise cuts T into pieces narrower than the
      // grid spacing.
      for (std::size_t k = 0; k < npts; ++k) {
        sc.xs[k] = p.L + spec.delta_Ls[k];
      }
      const auto& s0 = solver.solve(0, sc.xs[0], sc.ws);
      const lp::LoweredProblem::BatchPoint start{s0.value, s0.gradient[0],
                                                 s0.lo, s0.hi};
      solver.solve_batch(0, sc.xs.data() + 1, npts - 1, sc.bc,
                         sc.pts.data());
      sc.anchor_solves += npts;

      double* out = buffer.data() + j * stride;
      out[0] = start.value;
      for (std::size_t k = 1; k < npts; ++k) out[k] = sc.pts[k - 1].value;
      out[npts] = start.slope;
      out[npts + 1] =
          start.value > 0.0 ? sc.xs[0] * start.slope / start.value : 0.0;
      if (nbands > 0) {
        for (std::size_t b = 0; b < nbands; ++b) {
          sc.budgets[b] = start.value * (1.0 + spec.band_percents[b] / 100.0);
        }
        sc.search_passes += solver.max_param_for_budgets_from(
            0, sc.xs[0], start, sc.budgets, sc.ws, sc.tols.data());
        for (std::size_t b = 0; b < nbands; ++b) {
          out[npts + 2 + b] = tolerance_delta(sc.tols[b], sc.xs[0]);
        }
      }
      // llamp-lint: hot-path end
    });
    fold_block(bn);
  }
  for (const WorkerScratch& s : scratch) {
    res.anchor_solves += s.anchor_solves;
    res.replays += s.replays;
    res.search_passes += s.search_passes;
  }
  return res;
}

namespace {

/// One summary row.  All-unbounded metrics (a tolerance no sample ever
/// hit) render their statistics cells as "unbounded" in every format, the
/// same word the deterministic report uses.
void add_summary_row(Table& t, const std::string& metric, const Summary& s,
                     bool human, bool time_valued) {
  const bool all_unbounded = s.count() == 0 && s.unbounded() > 0;
  const auto fmt = [&](double v) -> std::string {
    if (all_unbounded) return "unbounded";
    if (human) {
      return time_valued ? human_time_ns(v) : strformat("%.3g", v);
    }
    return strformat("%.10g", v);
  };
  t.add_row({metric, strformat("%zu", s.count()),
             strformat("%zu", s.unbounded()), fmt(s.mean()),
             fmt(s.stddev()), fmt(s.min()), fmt(s.q05()), fmt(s.median()),
             fmt(s.q95()), fmt(s.max())});
}

}  // namespace

Table mc_summary_table(const McResult& result, bool human) {
  // The same column set serves every format; only cell formatting differs.
  Table t({"metric", "n", "unbounded", "mean", "stddev", "min", "q05",
           "median", "q95", "max"});
  for (std::size_t k = 0; k < result.runtime.size(); ++k) {
    const std::string metric =
        human ? "T(ΔL=" + human_time_ns(result.delta_Ls[k]) + ")"
              : strformat("runtime_ns[dl=%.1f]", result.delta_Ls[k]);
    add_summary_row(t, metric, result.runtime[k], human,
                    /*time_valued=*/true);
  }
  add_summary_row(t, human ? "lambda_L" : "lambda_l", result.lambda_L, human,
                  /*time_valued=*/false);
  add_summary_row(t, human ? "rho_L" : "rho_l", result.rho_L, human,
                  /*time_valued=*/false);
  for (const auto& band : result.bands) {
    const std::string metric =
        human ? strformat("tol %g%%", band.percent)
              : strformat("tolerance_delta_ns[%g%%]", band.percent);
    add_summary_row(t, metric, band.tolerance_delta, human,
                    /*time_valued=*/true);
  }
  return t;
}

}  // namespace llamp::stoch
