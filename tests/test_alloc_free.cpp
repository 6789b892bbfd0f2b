#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/registry.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"

// Allocation-counter wall for the solver hot path: after a warm-up solve
// has grown a workspace's buffers, steady-state solves and segment-walk
// sweeps through that workspace must perform ZERO heap allocations.  The
// global operator new/delete are replaced with counting versions — this
// test lives in its own binary so the override cannot disturb any other
// suite.

namespace {
thread_local std::size_t g_allocations = 0;
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace llamp::lp {
namespace {

TEST(AllocationFree, SteadyStateSolvesAllocateNothing) {
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  // Warm-up: grows every buffer to its structural maximum.
  (void)solver.solve(0, p.L, ws);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 100; ++i) {
    const auto& sol = solver.solve(0, p.L + 1'000.0 * i, ws);
    ASSERT_GT(sol.value, 0.0);
  }
  EXPECT_EQ(g_allocations, before)
      << "steady-state solve() allocated on the heap";
}

TEST(AllocationFree, SegmentWalkSweepAllocatesNothing) {
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;

  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(p.L + 500.0 * i);
  std::vector<LoweredProblem::SweepEval> out(xs.size());

  solver.sweep(0, xs, ws, out.data());  // warm-up

  const std::size_t before = g_allocations;
  solver.sweep(0, xs, ws, out.data());
  EXPECT_EQ(g_allocations, before)
      << "steady-state sweep() allocated on the heap";
}

TEST(AllocationFree, BatchSolvesAllocateNothingAfterWarmup) {
  // Same wall for the batched kernel: once prepare_batch has grown the
  // cursor's lane buffers, solve_batch / solve_batch_ranges / the lockstep
  // budget search must be heap-silent, at full blocks and at every tail
  // width.
  const auto g =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::BatchCursor bc;

  std::vector<double> xs(kBatchWidth + 3);
  for (std::size_t l = 0; l < xs.size(); ++l) {
    xs[l] = p.L + 250.0 * static_cast<double>(l);
  }
  std::vector<LoweredProblem::BatchPoint> pts(xs.size());
  std::vector<double> from(xs.size(), p.L);
  std::vector<double> budgets(xs.size());
  std::vector<double> tols(xs.size());
  std::vector<LoweredProblem::BatchPoint> starts(xs.size());
  const double v0 = solver.solve(0, p.L).value;
  for (std::size_t l = 0; l < xs.size(); ++l) {
    budgets[l] = v0 * (1.02 + 0.01 * static_cast<double>(l));
  }

  // Warm-up: one call per entry point grows every lane buffer.
  solver.solve_batch(0, xs.data(), xs.size(), bc, pts.data());
  solver.solve_batch_ranges(0, xs.data(), xs.size(), bc, pts.data());
  solver.solve_batch_ranges(0, from.data(), from.size(), bc, starts.data());
  solver.max_param_for_budgets_from_batch(0, from.data(), starts.data(),
                                          xs.size(), budgets.data(), 1, bc,
                                          tols.data());

  const std::size_t before = g_allocations;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t n : {xs.size(), kBatchWidth, std::size_t{5},
                          std::size_t{1}}) {
      solver.solve_batch(0, xs.data(), n, bc, pts.data());
      solver.solve_batch_ranges(0, xs.data(), n, bc, pts.data());
      ASSERT_GT(pts[0].value, 0.0);
    }
    solver.solve_batch_ranges(0, from.data(), from.size(), bc,
                              starts.data());
    solver.max_param_for_budgets_from_batch(0, from.data(), starts.data(),
                                            xs.size(), budgets.data(), 1, bc,
                                            tols.data());
  }
  EXPECT_EQ(g_allocations, before)
      << "steady-state batch kernel allocated on the heap";
}

TEST(AllocationFree, McWalkAndSearchLoopsAllocateNothing) {
  // The Monte Carlo engine's steady-state loops: a sorted walk in chunks,
  // one ranged starting pass and the batched multi-budget search resumed
  // from it (fast path); a dense anchor solve, one plain batch pass over
  // the other grid points and the scalar multi-budget search (general
  // path).
  const auto g =
      schedgen::build_graph(apps::make_app_trace("hpcg", 8, 0.02));
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem solver(g, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem::Cursor ws;
  LoweredProblem::BatchCursor bc;

  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(p.L + 977.0 * ((i * 37) % 64));
  std::vector<std::uint32_t> order(xs.size());
  std::vector<double> sorted(xs.size());
  std::vector<LoweredProblem::SweepEval> evals(xs.size());
  std::vector<LoweredProblem::BatchPoint> start(kBatchWidth);
  constexpr std::size_t kBands = 3;
  std::vector<double> budgets(kBands * kBatchWidth);
  std::vector<double> tols(kBands * kBatchWidth);
  const auto round = [&] {
    for (std::size_t q = 0; q < order.size(); ++q) {
      order[q] = static_cast<std::uint32_t>(q);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) { return xs[a] < xs[b]; });
    for (std::size_t q = 0; q < order.size(); ++q) sorted[q] = xs[order[q]];
    for (std::size_t c = 0; c < 2; ++c) {
      const std::size_t lo = c * sorted.size() / 2;
      const std::size_t hi = (c + 1) * sorted.size() / 2;
      solver.sweep(0, {sorted.data() + lo, hi - lo}, ws, evals.data() + lo);
    }
    for (const std::size_t lanes : {kBatchWidth, std::size_t{5}}) {
      solver.solve_batch_ranges(0, xs.data(), lanes, bc, start.data());
      for (std::size_t b = 0; b < kBands; ++b) {
        for (std::size_t l = 0; l < lanes; ++l) {
          budgets[b * lanes + l] = start[l].value * (1.01 + 0.02 * b);
        }
      }
      solver.max_param_for_budgets_from_batch(0, xs.data(), start.data(),
                                              lanes, budgets.data(), kBands,
                                              bc, tols.data());
    }
    const auto& s0 = solver.solve(0, xs[0], ws);
    const LoweredProblem::BatchPoint first{s0.value, s0.gradient[0], s0.lo,
                                           s0.hi};
    solver.solve_batch(0, xs.data() + 1, 10, bc, start.data());
    solver.max_param_for_budgets_from(0, xs[0], first,
                                      {budgets.data(), kBands}, ws,
                                      tols.data());
  };

  round();  // warm-up
  const std::size_t before = g_allocations;
  for (int i = 0; i < 10; ++i) round();
  EXPECT_EQ(g_allocations, before)
      << "steady-state mc walk/search loops allocated on the heap";
}

TEST(AllocationFree, WorkspaceReuseAcrossSolversOnlyGrows) {
  // Moving a warm workspace to a *smaller* scenario must stay
  // allocation-free; only growth may allocate.
  const auto big =
      schedgen::build_graph(apps::make_app_trace("lulesh", 8, 0.03));
  const auto small = llamp::testing::running_example_graph();
  const auto p = loggops::NetworkConfig::cscs_testbed();
  LoweredProblem sb(big, std::make_shared<LatencyParamSpace>(p));
  LoweredProblem ss(
      small,
      std::make_shared<LatencyParamSpace>(llamp::testing::running_example_params()));
  LoweredProblem::Cursor ws;
  (void)sb.solve(0, p.L, ws);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 50; ++i) {
    (void)ss.solve(0, 100.0 * i, ws);
    (void)sb.solve(0, p.L + 100.0 * i, ws);
  }
  EXPECT_EQ(g_allocations, before);
}

}  // namespace
}  // namespace llamp::lp
