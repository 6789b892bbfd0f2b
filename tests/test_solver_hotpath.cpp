#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "core/analyzer.hpp"
#include "core/campaign.hpp"
#include "core/solver_cache.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

// Equivalence wall for the zero-allocation hot path: the segment-walk
// sweep, the workspace-reusing solve, and the flat/CSR edge-cost lowering
// must all be *bitwise* indistinguishable from a dense per-point solve()
// — across every registered application and across randomized LogGPS
// configurations — and a workspace must carry no state between solvers.

namespace llamp::lp {
namespace {

/// An ascending, irregular grid over [lo, hi] that deliberately includes
/// every piece boundary of T (the walk's worst case: anchors, replays, and
/// exact-breakpoint hits all occur).
std::vector<double> stress_grid(const LoweredProblem& solver, int k, double lo,
                                double hi, int points, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < points; ++i) {
    xs.push_back(lo + (hi - lo) * rng.uniform());
  }
  for (const double c : solver.critical_values(k, lo, hi)) xs.push_back(c);
  xs.push_back(lo);
  xs.push_back(hi);
  std::sort(xs.begin(), xs.end());
  return xs;
}

/// The core property: walk results equal dense per-point solves, bit for
/// bit, in both the value and the active slope.
void expect_walk_matches_dense(const LoweredProblem& solver, int k,
                               const std::vector<double>& xs) {
  LoweredProblem::Cursor ws;
  std::vector<LoweredProblem::SweepEval> walk(xs.size());
  solver.sweep(k, xs, ws, walk.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto dense = solver.solve(k, xs[i]);
    EXPECT_EQ(walk[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(walk[i].slope, dense.gradient[static_cast<std::size_t>(k)])
        << "k=" << k << " x=" << xs[i];
  }
}

TEST(SegmentWalk, BitwiseMatchesDenseOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const auto space = std::make_shared<LatencyParamSpace>(p);
    LoweredProblem solver(g, space);
    const auto xs = stress_grid(solver, 0, 0.0, p.L + 100'000.0, 120,
                                0x5eedu + g.num_vertices());
    SCOPED_TRACE(app);
    expect_walk_matches_dense(solver, 0, xs);
  }
}

class RandomConfigTest : public ::testing::TestWithParam<std::uint64_t> {};

loggops::Params random_params(std::uint64_t seed) {
  Rng rng(seed);
  loggops::Params p;
  p.L = rng.uniform(0.0, 20'000.0);
  p.o = rng.uniform(0.0, 8'000.0);
  p.G = rng.uniform(0.0, 0.5);
  p.S = static_cast<std::uint64_t>(rng.uniform_int(16 * 1024, 512 * 1024));
  return p;
}

TEST_P(RandomConfigTest, WalkBitwiseMatchesDenseOnRandomPrograms) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam();
  cfg.nranks = 6;
  cfg.steps = 140;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 977 + 5);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  const auto xs =
      stress_grid(solver, 0, 0.0, p.L + 200'000.0, 100, GetParam());
  expect_walk_matches_dense(solver, 0, xs);
}

TEST_P(RandomConfigTest, CsrFallbackWalkMatchesDense) {
  // LatencyBandwidthParamSpace has two-term edges and the pairwise HLogGP
  // space has too many parameters to flatten: both exercise the CSR
  // fallback rather than the flat per-parameter lowering.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 77;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 31 + 9);

  LoweredProblem bw(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  expect_walk_matches_dense(bw, 1,
                            stress_grid(bw, 1, 0.0, p.G + 2.0, 60, 3));

  const auto pair_space =
      std::make_shared<PairwiseLatencyParamSpace>(p, cfg.nranks);
  LoweredProblem pw(g, pair_space);
  const int k = pair_space->pair_index(0, cfg.nranks - 1);
  expect_walk_matches_dense(pw, k,
                            stress_grid(pw, k, 0.0, p.L + 80'000.0, 60, 4));
}

TEST_P(RandomConfigTest, WorkspaceVariantsAreBitwiseIdentical) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 321;
  cfg.nranks = 5;
  cfg.steps = 110;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 131 + 3);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  const double lo = 0.0;
  const double hi = p.L + 120'000.0;

  const auto segs = solver.piecewise(0, lo, hi);
  const auto segs_ws = solver.piecewise(0, lo, hi, ws);
  ASSERT_EQ(segs.size(), segs_ws.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].lo, segs_ws[i].lo);
    EXPECT_EQ(segs[i].hi, segs_ws[i].hi);
    EXPECT_EQ(segs[i].slope, segs_ws[i].slope);
    EXPECT_EQ(segs[i].value_at_lo, segs_ws[i].value_at_lo);
  }
  // Segment slopes are the dense solver's own λ at interior points.
  for (const auto& seg : segs) {
    const double mid = 0.5 * (seg.lo + std::min(seg.hi, hi));
    EXPECT_NEAR(solver.solve(0, mid).gradient[0], seg.slope, 1e-9);
  }

  const auto crit = solver.critical_values(0, lo, hi);
  const auto crit_ws = solver.critical_values(0, lo, hi, ws);
  ASSERT_EQ(crit.size(), crit_ws.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    EXPECT_EQ(crit[i], crit_ws[i]);
  }

  const double budget = solver.solve(0, p.L).value * 1.05;
  const double tol = solver.max_param_for_budget(0, budget);
  EXPECT_EQ(tol, solver.max_param_for_budget(0, budget, ws));
  if (std::isfinite(tol)) {
    EXPECT_LE(solver.solve(0, tol).value,
              budget + 1e-9 * (1.0 + budget));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

TEST(Workspace, InterleavedSolversNeverLeakState) {
  // One workspace, three solvers over different graphs *and* different
  // parameter spaces (flat and CSR paths), interleaved: every result must
  // equal a fresh-workspace dense solve bit for bit.
  const auto g1 = testing::running_example_graph();
  testing::RandomProgramConfig cfg;
  cfg.seed = 9'001;
  cfg.nranks = 4;
  cfg.steps = 90;
  const auto g2 = schedgen::build_graph(testing::random_trace(cfg));
  const auto p1 = testing::running_example_params();
  const loggops::Params p2 = random_params(123);

  LoweredProblem a(g1, std::make_shared<LatencyParamSpace>(p1));
  LoweredProblem b(g2, std::make_shared<LatencyParamSpace>(p2));
  LoweredProblem c(g2, std::make_shared<LatencyBandwidthParamSpace>(p2));

  LoweredProblem::Cursor ws;
  for (int round = 0; round < 3; ++round) {
    for (const double x : {0.0, 385.0, 500.0, 1'000.0, 25'000.0}) {
      const auto& sa = a.solve(0, x, ws);
      const auto ra = a.solve(0, x);
      EXPECT_EQ(sa.value, ra.value);
      EXPECT_EQ(sa.gradient, ra.gradient);
      EXPECT_EQ(sa.lo, ra.lo);
      EXPECT_EQ(sa.hi, ra.hi);
      EXPECT_EQ(sa.messages, ra.messages);

      const auto& sb = b.solve(0, x, ws);
      const auto rb = b.solve(0, x);
      EXPECT_EQ(sb.value, rb.value);
      EXPECT_EQ(sb.gradient, rb.gradient);

      const auto& sc = c.solve(1, x * 1e-4, ws);
      const auto rc = c.solve(1, x * 1e-4);
      EXPECT_EQ(sc.value, rc.value);
      EXPECT_EQ(sc.gradient, rc.gradient);
    }
    // A walk on one solver between solves of the others must not perturb
    // anything either.
    const std::vector<double> xs = {0.0, 200.0, 400.0, 600.0, 5'000.0};
    std::vector<LoweredProblem::SweepEval> evals(xs.size());
    a.sweep(0, xs, ws, evals.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(evals[i].value, a.solve(0, xs[i]).value);
    }
  }
}

TEST(SweepApi, RejectsDescendingValues) {
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  LoweredProblem::Cursor ws;
  const std::vector<double> bad = {100.0, 50.0};
  std::vector<LoweredProblem::SweepEval> out(bad.size());
  EXPECT_THROW(solver.sweep(0, bad, ws, out.data()), LpError);
  EXPECT_THROW((void)solver.sweep(7, bad), LpError);
}

TEST(SweepApi, DuplicatesAndEmptyGridsAreFine) {
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  EXPECT_TRUE(solver.sweep(0, std::vector<double>{}).empty());
  const std::vector<double> xs = {500.0, 500.0, 500.0};
  const auto evals = solver.sweep(0, xs);
  ASSERT_EQ(evals.size(), 3u);
  EXPECT_EQ(evals[0].value, 1'615.0);
  EXPECT_EQ(evals[1].value, 1'615.0);
  EXPECT_EQ(evals[2].value, 1'615.0);
}

// ---------------------------------------------------------------------------
// LoweredProblem / Cursor split, anchor snapshots, and the SolverCache
// (PR 7): replay from a published anchor must be bitwise indistinguishable
// from a dense solve, whatever serves the query and however warm the cache.
// ---------------------------------------------------------------------------

TEST(LoweredProblem, OneLoweringServesManyFacades) {
  // One lowering behind every handle: two lookups of one SolverCache key
  // share the problem, and solves through it match a fresh lowering.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const auto a = cache.latency(key, g, p)->problem();
  const auto b = cache.latency(key, g, p)->problem();
  EXPECT_EQ(a.get(), b.get());
  const LoweredProblem fresh(g, std::make_shared<LatencyParamSpace>(p));
  for (const double x : {0.0, 385.0, 500.0, 5'000.0}) {
    const auto sa = a->solve(0, x);
    const auto sd = fresh.solve(0, x);
    EXPECT_EQ(sa.value, sd.value);
    EXPECT_EQ(sa.gradient, sd.gradient);
    EXPECT_EQ(sa.lo, sd.lo);
    EXPECT_EQ(sa.hi, sd.hi);
  }
  EXPECT_THROW(LoweredProblem(g, nullptr), LpError);
}

/// Solve at each anchor point through a cursor, snapshot the anchor, and
/// require replay_anchor to reproduce dense solves bitwise across the
/// anchor's whole stability zone.
void expect_replay_matches_dense(const LoweredProblem& prob, int k,
                                 const std::vector<double>& anchors) {
  ASSERT_TRUE(prob.flat());
  LoweredProblem::Cursor cur;
  for (const double x0 : anchors) {
    const auto& sol = prob.solve(k, x0, cur);
    LoweredProblem::AnchorState anchor;
    prob.save_anchor(cur, anchor);
    EXPECT_EQ(anchor.solution.value, sol.value);
    ASSERT_TRUE(anchor.covers(k, x0));
    std::vector<double> probes = {x0};
    if (std::isfinite(anchor.stable_hi)) {
      probes.push_back(x0 + 0.25 * (anchor.stable_hi - x0));
      probes.push_back(x0 + 0.75 * (anchor.stable_hi - x0));
    } else {
      probes.push_back(x0 + 1.0);
      probes.push_back(x0 + 12'345.0);
    }
    for (const double x : probes) {
      if (!anchor.covers(k, x)) continue;
      const auto ev = prob.replay_anchor(anchor, k, x);
      const auto dense = prob.solve(k, x);
      EXPECT_EQ(ev.value, dense.value) << "anchor=" << x0 << " x=" << x;
      EXPECT_EQ(ev.slope, dense.gradient[static_cast<std::size_t>(k)])
          << "anchor=" << x0 << " x=" << x;
    }
  }
}

TEST(AnchorReplay, BitwiseMatchesDenseOnAllRegisteredApps) {
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    expect_replay_matches_dense(prob, 0,
                                {0.0, p.L, p.L + 7'000.0, p.L + 90'000.0});
  }
}

TEST_P(RandomConfigTest, AnchorReplayBitwiseMatchesDenseOnRandomPrograms) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 555;
  cfg.nranks = 5;
  cfg.steps = 120;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 31 + 17);
  const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
  Rng rng(GetParam());
  std::vector<double> anchors;
  for (int i = 0; i < 12; ++i) {
    anchors.push_back(rng.uniform(0.0, p.L + 150'000.0));
  }
  expect_replay_matches_dense(prob, 0, anchors);
}

TEST(AnchorReplay, RejectsNonCoveringAnchorsAndCsrLowerings) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem prob(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  prob.solve(0, 0.0, cur);
  LoweredProblem::AnchorState anchor;
  prob.save_anchor(cur, anchor);
  // The first piece of the running example ends at L_c = 385: beyond the
  // stability zone (or behind the anchor point) replay must refuse, never
  // extrapolate.
  EXPECT_FALSE(anchor.covers(0, 1'000'000.0));
  EXPECT_THROW((void)prob.replay_anchor(anchor, 0, 1'000'000.0), LpError);
  EXPECT_THROW((void)prob.replay_anchor(anchor, 0, -1.0), LpError);
  // A never-solved cursor has no anchor to snapshot.
  LoweredProblem::Cursor idle;
  EXPECT_THROW(prob.save_anchor(idle, anchor), LpError);
  // Two-term edges lower to the CSR fallback: the anchor can be saved but
  // cursor-less replay is flat-only and must refuse.
  const LoweredProblem csr(g,
                           std::make_shared<LatencyBandwidthParamSpace>(p));
  EXPECT_FALSE(csr.flat());
  LoweredProblem::Cursor bw;
  csr.solve(1, p.G, bw);
  LoweredProblem::AnchorState csr_anchor;
  csr.save_anchor(bw, csr_anchor);
  EXPECT_THROW((void)csr.replay_anchor(csr_anchor, 1, p.G), LpError);
}

/// The grid shapes Entry::sweep must serve: `xs` as given, ascending,
/// descending, and shuffled.
std::vector<std::vector<double>> grid_shapes(const std::vector<double>& xs,
                                             std::uint64_t seed) {
  std::vector<double> asc = xs;
  std::sort(asc.begin(), asc.end());
  std::vector<double> desc(asc.rbegin(), asc.rend());
  std::vector<double> shuffled = xs;
  Rng rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>(i));
    std::swap(shuffled[i - 1], shuffled[std::min(j, i - 1)]);
  }
  return {xs, asc, desc, shuffled};
}

TEST(SolverCacheEntry, EvalIsBitwiseDenseColdWarmAndRepeated) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const LoweredProblem dense(g, std::make_shared<LatencyParamSpace>(p));

  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(rng.uniform(0.0, 5'000.0));
  // Repeats, the knot, and nearby points: the replay-heavy shapes.
  xs.insert(xs.end(), {385.0, 385.0, 500.0, 500.0, 500.5, 501.0});

  // Shape 0 goes point by point through eval(); every shape also goes
  // through one sweep() call over a fresh cache.
  const auto shapes = grid_shapes(xs, 8);
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    const std::vector<double>& grid = shapes[shape];
    for (const bool per_point : {true, false}) {
      if (per_point && shape != 0) continue;
      SCOPED_TRACE(::testing::Message()
                   << "shape=" << shape << " per_point=" << per_point);
      core::SolverCache cache;
      const auto entry = cache.latency(key, g, p);
      LoweredProblem::Cursor cur;
      const auto run = [&] {
        std::vector<LoweredProblem::SweepEval> out(grid.size());
        if (per_point) {
          for (std::size_t i = 0; i < grid.size(); ++i) {
            out[i] = entry->eval(0, grid[i], cur);
          }
        } else {
          entry->sweep(0, grid, cur, out.data());
        }
        return out;
      };
      const auto first = run();
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto ref = dense.solve(0, grid[i]);
        EXPECT_EQ(first[i].value, ref.value) << "x=" << grid[i];
        EXPECT_EQ(first[i].slope, ref.gradient[0]) << "x=" << grid[i];
      }
      const auto cold = cache.stats();
      EXPECT_GT(cold.anchor_solves, 0u);
      EXPECT_EQ(cold.anchor_solves + cold.replays, grid.size());
      EXPECT_LE(entry->anchor_count(), 64u);

      // Warm second pass: same bytes, now served by anchor replay.
      const auto second = run();
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(second[i].value, first[i].value) << "x=" << grid[i];
        EXPECT_EQ(second[i].slope, first[i].slope) << "x=" << grid[i];
      }
      const auto warm = cache.stats();
      EXPECT_GT(warm.replays, cold.replays);
      EXPECT_EQ(warm.built, cold.built);
    }
  }

  // One cursor alternating between two entries (two different L): each
  // sweep rewrites all cursor state it reads, so nothing leaks across.
  core::SolverCache cache;
  loggops::Params p2 = p;
  p2.L += 250.0;
  const auto a = cache.latency(key, g, p);
  const auto b = cache.latency(key, g, p2);
  ASSERT_NE(a.get(), b.get());
  const LoweredProblem dense2(g, std::make_shared<LatencyParamSpace>(p2));
  LoweredProblem::Cursor cur;
  const std::vector<double>& asc = shapes[1];
  for (std::size_t lo = 0; lo < asc.size(); lo += 7) {
    const std::size_t n = std::min<std::size_t>(7, asc.size() - lo);
    const std::span<const double> chunk(asc.data() + lo, n);
    for (const bool first : {true, false}) {
      const auto& entry = first ? a : b;
      const LoweredProblem& ref = first ? dense : dense2;
      std::vector<LoweredProblem::SweepEval> out(n);
      entry->sweep(0, chunk, cur, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const auto d = ref.solve(0, chunk[i]);
        EXPECT_EQ(out[i].value, d.value) << "first=" << first;
        EXPECT_EQ(out[i].slope, d.gradient[0]) << "first=" << first;
      }
    }
  }
}

TEST(SolverCacheEntry, SweepDenseSolvesMatchTheSegmentWalk) {
  // A fresh-cache ascending sweep must cost what the segment walk costs:
  // the entry keeps at most 64 anchors, and this grid crosses more basis
  // pieces than that, so only the sweep's own last anchor keeps replay
  // going.  Served point by point from the published store alone, the
  // same sweep dense-solves every one of its 200 points.
  const int ranks = apps::supported_ranks("hpcg", 64);
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", ranks, 0.05));
  auto p = loggops::NetworkConfig::cscs_testbed();
  core::apply_table2_overhead(p, "hpcg", ranks);
  const std::vector<TimeNs> grid = core::linear_grid(us(100), 200);
  std::vector<double> xs;
  for (const TimeNs d : grid) xs.push_back(p.L + d);

  const LoweredProblem walk_prob(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor cur;
  std::vector<LoweredProblem::SweepEval> walk(xs.size());
  LoweredProblem::SweepStats walk_stats;
  walk_prob.sweep(0, xs, cur, walk.data(), &walk_stats);
  EXPECT_EQ(walk_stats.anchor_solves, 85u);

  const core::GraphKey key{"hpcg", ranks, 0.05, p.S};
  core::SolverCache shared;
  const core::LatencyAnalyzer warm(g, p, shared, key);
  const core::LatencyAnalyzer cold(g, p);
  for (const core::LatencyAnalyzer* an : {&warm, &cold}) {
    SCOPED_TRACE(an == &warm ? "warm" : "cold");
    const auto points = an->sweep(grid, 1);
    // The constructor's base-runtime solve is the walk's first anchor.
    EXPECT_EQ(an->cache().stats().anchor_solves, walk_stats.anchor_solves);
    ASSERT_EQ(points.size(), walk.size());
    for (std::size_t i = 0; i < walk.size(); ++i) {
      EXPECT_EQ(points[i].runtime, walk[i].value) << "i=" << i;
      EXPECT_EQ(points[i].lambda_L, walk[i].slope) << "i=" << i;
    }
  }
}

TEST(SolverCacheStats, KeysOnGraphKeyAndParamFingerprint) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const core::GraphKey key{"running-example", 1, 1.0, p.S};
  const auto a = cache.latency(key, g, p);
  const auto b = cache.latency(key, g, p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->problem().get(), b->problem().get());
  loggops::Params p2 = p;
  p2.L += 1.0;
  const auto c = cache.latency(key, g, p2);
  EXPECT_NE(a.get(), c.get());
  // The bandwidth space is a distinct fingerprint under the same key; its
  // CSR lowering always dense-solves but is still shared.
  const auto bw = cache.latency_bandwidth(key, g, p);
  EXPECT_NE(a.get(), bw.get());
  EXPECT_FALSE(bw->problem()->flat());
  LoweredProblem::Cursor cur;
  const LoweredProblem dense(g,
                            std::make_shared<LatencyBandwidthParamSpace>(p));
  const auto ev = bw->eval(1, p.G, cur);
  const auto ref = dense.solve(1, p.G);
  EXPECT_EQ(ev.value, ref.value);
  EXPECT_EQ(ev.slope, ref.gradient[1]);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_NE(cache.stats_string().find("solvers: built=3"), std::string::npos);
}

TEST(SolverCacheEntry, ConcurrentEvalsAreBitwiseDense) {
  // 8 threads hammer one entry with overlapping repeated/nearby queries,
  // racing anchor publication; every result must equal the dense value.
  // Threads 0-3 query point by point through eval(); threads 4-7 sweep
  // the ascending, descending, shuffled and as-drawn grids in chunks.
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  core::SolverCache cache;
  const auto entry =
      cache.latency(core::GraphKey{"running-example", 1, 1.0, p.S}, g, p);
  const LoweredProblem dense(g, std::make_shared<LatencyParamSpace>(p));

  std::vector<double> xs;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) xs.push_back(rng.uniform(0.0, 4'000.0));
  const auto shapes = grid_shapes(xs, 100);

  constexpr int kThreads = 8;
  // The grid thread t queries, in its query order.
  const auto grid_of = [&](int t) {
    if (t >= 4) return shapes[static_cast<std::size_t>(t - 4 + 1) % 4];
    std::vector<double> rot(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Distinct starting offsets so threads race different anchors.
      rot[i] = xs[(i + static_cast<std::size_t>(t) * 25) % xs.size()];
    }
    return rot;
  };
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<double> grid = grid_of(t);
      auto& mine = got[static_cast<std::size_t>(t)];
      LoweredProblem::Cursor cur;
      if (t < 4) {
        for (const double x : grid) {
          mine.push_back(entry->eval(0, x, cur).value);
        }
        return;
      }
      std::vector<LoweredProblem::SweepEval> out(grid.size());
      for (std::size_t lo = 0; lo < grid.size(); lo += 40) {
        const std::size_t n = std::min<std::size_t>(40, grid.size() - lo);
        entry->sweep(0, std::span(grid).subspan(lo, n), cur, out.data() + lo);
      }
      for (const auto& ev : out) mine.push_back(ev.value);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::vector<double> grid = grid_of(t);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(t)][i],
                dense.solve(0, grid[i]).value)
          << "thread=" << t << " x=" << grid[i];
    }
  }
}

// ---------------------------------------------------------------------------
// max_param_for_budget boundary contract (PR 7 bugfix): exact knot ties,
// budgets inside the eps band, and budgets already violated at the anchor
// all have pinned, cursor-state-independent answers.
// ---------------------------------------------------------------------------

TEST(BudgetBoundary, KnotTiesEpsBandAndViolatedAnchors) {
  // Running example: T(L) = max(L + 1115, 1500) with the knot at L_c = 385
  // and base L = 500 (T = 1615).
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  // Budget exactly ties the knot value: the answer is the knot (the whole
  // flat piece meets the budget; 385 is its right end), not +inf and not
  // the anchor.
  const double knot = solver.max_param_for_budget_from(0, 0.0, 1'500.0, ws);
  EXPECT_NEAR(knot, 385.0, 1e-5);
  EXPECT_LE(solver.solve(0, knot).value, 1'500.0 + 1e-9 * (1.0 + 1'500.0));

  // Budget exactly T(from): the answer is `from` itself, never below it.
  EXPECT_EQ(solver.max_param_for_budget_from(0, 500.0, 1'615.0, ws), 500.0);

  // Budget inside the eps band below T(from): still clamped to `from`
  // (the pre-fix code could walk backwards past the anchor here).
  const double teps = 1e-9 * (1.0 + 1'615.0);
  const double r =
      solver.max_param_for_budget_from(0, 500.0, 1'615.0 - 0.5 * teps, ws);
  EXPECT_EQ(r, 500.0);

  // Budget already violated beyond the eps band: a defined error, both
  // from an explicit anchor and from the space's base point (T(500) = 1615
  // exceeds both budgets).
  EXPECT_THROW((void)solver.max_param_for_budget_from(0, 500.0, 1'550.0, ws),
               LpError);
  EXPECT_THROW((void)solver.max_param_for_budget(0, 1'000.0), LpError);

  // Cursor-state independence: a cursor that just served unrelated solves
  // and a fresh one agree bitwise at every boundary shape, knot tie
  // included.
  solver.solve(0, 4'999.0, ws);
  LoweredProblem::Cursor fresh;
  EXPECT_EQ(solver.max_param_for_budget_from(0, 0.0, 1'500.0, ws),
            solver.max_param_for_budget_from(0, 0.0, 1'500.0, fresh));
  for (const double budget : {1'615.0, 1'616.0, 2'000.0, 1e9}) {
    EXPECT_EQ(solver.max_param_for_budget(0, budget, ws),
              solver.max_param_for_budget(0, budget, fresh))
        << "budget=" << budget;
  }
}

TEST_P(RandomConfigTest, BudgetBoundaryAgreesAcrossCursorStates) {
  // On random programs: results are >= the anchor, meet the budget within
  // eps, and never depend on prior cursor state.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 808;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 53 + 29);
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor warm;
  const double base_value = solver.solve(0, p.L, warm).value;
  for (const double factor : {1.0, 1.0 + 1e-12, 1.001, 1.05, 1.5}) {
    const double budget = base_value * factor;
    const double a = solver.max_param_for_budget_from(0, p.L, budget, warm);
    LoweredProblem::Cursor fresh;
    const double b = solver.max_param_for_budget_from(0, p.L, budget, fresh);
    EXPECT_EQ(a, b) << "factor=" << factor;
    EXPECT_GE(a, p.L);
    if (std::isfinite(a)) {
      EXPECT_LE(solver.solve(0, a).value, budget + 1e-9 * (1.0 + budget));
    }
  }
}

// ---------------------------------------------------------------------------
// Batched sample-axis kernel (PR 8): solve_batch / solve_batch_ranges must
// be bitwise indistinguishable from n independent dense solves — across
// every registered app, random LogGPS configurations, the flat and CSR
// lowerings, and every block-boundary shape (n below, at, and off multiples
// of kBatchWidth, so the last_pow2 tail dispatch is exercised too).
// ---------------------------------------------------------------------------

/// Unordered lane values (the batch API, unlike sweep, imposes no order):
/// random points, duplicates, and the interval ends shuffled together.
std::vector<double> batch_grid(double lo, double hi, int points,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < points; ++i) {
    xs.push_back(lo + (hi - lo) * rng.uniform());
  }
  xs.push_back(hi);
  xs.push_back(lo);
  if (!xs.empty()) xs.push_back(xs.front());  // a duplicate lane
  return xs;
}

void expect_batch_matches_dense(const LoweredProblem& solver, int k,
                                const std::vector<double>& xs,
                                LoweredProblem::BatchCursor& bc) {
  std::vector<LoweredProblem::BatchPoint> plain(xs.size());
  std::vector<LoweredProblem::BatchPoint> ranged(xs.size());
  solver.solve_batch(k, xs.data(), xs.size(), bc, plain.data());
  solver.solve_batch_ranges(k, xs.data(), xs.size(), bc, ranged.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto dense = solver.solve(k, xs[i]);
    const double dslope = dense.gradient[static_cast<std::size_t>(k)];
    EXPECT_EQ(plain[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(plain[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].value, dense.value) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].slope, dslope) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].lo, dense.lo) << "k=" << k << " x=" << xs[i];
    EXPECT_EQ(ranged[i].hi, dense.hi) << "k=" << k << " x=" << xs[i];
  }
}

TEST(BatchSolve, BitwiseMatchesDenseOnAllRegisteredApps) {
  // Shared across apps: reuse must not leak state.
  LoweredProblem::BatchCursor bc;
  for (const std::string& app : apps::app_names()) {
    const int ranks = apps::supported_ranks(app, 8);
    const auto g =
        schedgen::build_graph(apps::make_app_trace(app, ranks, 0.02));
    const auto p = loggops::NetworkConfig::cscs_testbed();
    LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
    SCOPED_TRACE(app);
    expect_batch_matches_dense(
        solver, 0,
        batch_grid(0.0, p.L + 100'000.0, 17, 0xba7c4u + g.num_vertices()),
        bc);
  }
}

TEST_P(RandomConfigTest, BatchBitwiseMatchesDenseAtEveryBlockBoundary) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 4'242;
  cfg.nranks = 5;
  cfg.steps = 110;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 271 + 13);
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::BatchCursor bc;
  const auto xs =
      batch_grid(0.0, p.L + 200'000.0, 31, GetParam() * 7 + 1);
  // Prefix lengths straddling every sub-block shape the tail dispatch can
  // take: 1..9 covers the pow2 ladder, 15/16/17 the full-block boundary.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        xs.size()}) {
    SCOPED_TRACE(n);
    expect_batch_matches_dense(
        solver, 0, std::vector<double>(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(n)), bc);
  }
}

TEST_P(RandomConfigTest, BatchCsrFallbackBitwiseMatchesDense) {
  // Two-term edges (bandwidth) and the pairwise space both bypass the flat
  // lowering; the batch kernel's CSR lane walk must match the scalar term
  // walk bitwise.
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 2'024;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 631 + 7);
  LoweredProblem::BatchCursor bc;

  LoweredProblem bw(g, std::make_shared<LatencyBandwidthParamSpace>(p));
  expect_batch_matches_dense(bw, 1, batch_grid(0.0, p.G + 2.0, 13, 21), bc);

  const auto pair_space =
      std::make_shared<PairwiseLatencyParamSpace>(p, cfg.nranks);
  LoweredProblem pw(g, pair_space);
  const int k = pair_space->pair_index(0, cfg.nranks - 1);
  expect_batch_matches_dense(pw, k,
                             batch_grid(0.0, p.L + 80'000.0, 13, 22), bc);
}

TEST_P(RandomConfigTest, BatchBudgetSearchBitwiseMatchesScalar) {
  testing::RandomProgramConfig cfg;
  cfg.seed = GetParam() + 909;
  cfg.nranks = 5;
  cfg.steps = 100;
  const auto g = schedgen::build_graph(testing::random_trace(cfg));
  const loggops::Params p = random_params(GetParam() * 47 + 19);
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  const double base_value = solver.solve(0, p.L).value;

  // 10 lanes (not a multiple of the block width): anchors on and off the
  // base point, budgets from exact ties through loose, including the eps
  // band clamp shapes of the BudgetBoundary wall.
  std::vector<double> from;
  std::vector<double> budget;
  for (const double factor : {1.0, 1.0 + 1e-12, 1.001, 1.05, 1.5}) {
    from.push_back(p.L);
    budget.push_back(base_value * factor);
    from.push_back(0.0);
    budget.push_back(base_value * factor);
  }
  std::vector<double> batch(from.size());
  LoweredProblem::BatchCursor bc;
  solver.max_param_for_budget_from_batch(0, from.data(), budget.data(),
                                         from.size(), bc, batch.data());
  for (std::size_t i = 0; i < from.size(); ++i) {
    LoweredProblem::Cursor ws;
    EXPECT_EQ(batch[i],
              solver.max_param_for_budget_from(0, from[i], budget[i], ws))
        << "lane=" << i << " from=" << from[i] << " budget=" << budget[i];
  }
}

TEST(BatchSolve, ErrorsAndEdgeShapesMatchScalarContracts) {
  const auto g = testing::running_example_graph();
  const auto p = testing::running_example_params();
  const LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::BatchCursor bc;
  std::vector<double> xs = {0.0, 500.0};
  std::vector<LoweredProblem::BatchPoint> out(xs.size());
  // Out-of-range active parameter: same LpError as solve().
  EXPECT_THROW(solver.solve_batch(7, xs.data(), xs.size(), bc, out.data()),
               LpError);
  // n = 0 is a no-op.
  solver.solve_batch(0, xs.data(), 0, bc, out.data());
  // An infeasible lane throws the scalar's infeasibility error even when
  // other lanes are feasible (T(500) = 1615 > 1550).
  std::vector<double> from = {500.0, 500.0};
  std::vector<double> budget = {2'000.0, 1'550.0};
  std::vector<double> tol(from.size());
  EXPECT_THROW(solver.max_param_for_budget_from_batch(
                   0, from.data(), budget.data(), from.size(), bc,
                   tol.data()),
               LpError);
  // The paper's running example through the batch path: T(L) numbers of
  // Fig. 4c at block width and off it.
  std::vector<double> grid;
  for (int i = 0; i < 11; ++i) grid.push_back(i * 100.0);
  std::vector<LoweredProblem::BatchPoint> pts(grid.size());
  solver.solve_batch(0, grid.data(), grid.size(), bc, pts.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i].value, std::max(grid[i] + 1'115.0, 1'500.0));
    EXPECT_EQ(pts[i].slope, grid[i] >= 385.0 ? 1.0 : 0.0);
  }
}

TEST(SegmentWalk, RunningExampleAnchorsOncePerPiece) {
  // The running example has exactly two pieces (L_c = 385 ns); a 200-point
  // walk must reproduce the paper's numbers at every grid point.
  const auto g = testing::running_example_graph();
  LoweredProblem solver(
      g, std::make_shared<LatencyParamSpace>(testing::running_example_params()));
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(i * 5.0);
  const auto evals = solver.sweep(0, xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect =
        std::max(xs[i] + 1'115.0, 1'500.0);  // T(L) of Fig. 4c
    EXPECT_DOUBLE_EQ(evals[i].value, expect) << "x=" << xs[i];
    // At L_c itself both pieces tie and the solver breaks toward the
    // larger slope.
    EXPECT_EQ(evals[i].slope, xs[i] >= 385.0 ? 1.0 : 0.0) << "x=" << xs[i];
  }
}

}  // namespace
}  // namespace llamp::lp
