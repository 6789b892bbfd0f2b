// Concurrency stress for the long-lived shared structures behind the
// api::Engine: util/parallel's process-wide executor (one loop, helpers
// reused across loops, nested and concurrent callers), core::GraphCache
// (build-once graphs behind per-key locks), and the obs registry/tracer
// (sharded metric cells, per-thread span lanes).  These suites are the
// primary target of the ThreadSanitizer CI job — they are written to
// maximize contention, not coverage: many tiny loops, many threads racing
// one key, exceptions thrown mid-loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace llamp {
namespace {

constexpr std::uint64_t kS = 256 * 1024;  // the default rendezvous threshold

// ---------------------------------------------------------------------------
// The executor under reuse pressure.  The suite keeps the ThreadPoolStress
// name: the executor is the process's one thread pool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolStress, ManyTinyJobsBackToBack) {
  // Hundreds of small loops back to back: every call publishes a loop,
  // wakes helpers and waits for the ones that joined, which is where a
  // missed-wakeup or use-after-return bug would live.
  for (int round = 0; round < 400; ++round) {
    std::atomic<long long> sum{0};
    const std::size_t n = 1 + static_cast<std::size_t>(round % 37);
    parallel_for(n, 8, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<long long>(i) + 1, std::memory_order_relaxed);
    });
    const long long nn = static_cast<long long>(n);
    ASSERT_EQ(sum.load(), nn * (nn + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolStress, ExceptionStormLeavesPoolServiceable) {
  // Alternate failing and clean loops; a failed loop must drain fully (no
  // helper left running into the next loop's state) and rethrow exactly
  // one exception on the caller.
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for(64, 4, [&](int, std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (round % 2 == 0 && i % 19 == 3) throw Error("storm");
      });
      EXPECT_EQ(round % 2, 1) << "even rounds must throw";
      EXPECT_EQ(ran.load(), 64);
    } catch (const Error&) {
      EXPECT_EQ(round % 2, 0) << "odd rounds must not throw";
    }
  }
  std::atomic<int> count{0};
  parallel_for(32, 0, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolStress, WorkerScratchStaysPerWorker) {
  // Per-slot accumulators indexed by the slot: if two threads ever served
  // one slot concurrently, TSan would flag the unsynchronized writes and
  // the totals would drift.
  for (int round = 0; round < 50; ++round) {
    std::vector<long long> per_slot(
        static_cast<std::size_t>(effective_threads(257, 6)), 0);
    parallel_for(257, 6, [&](int w, std::size_t i) {
      per_slot[static_cast<std::size_t>(w)] += static_cast<long long>(i) + 1;
    });
    long long total = 0;
    for (const long long v : per_slot) total += v;
    ASSERT_EQ(total, 257LL * 258 / 2);
  }
}

// ---------------------------------------------------------------------------
// Claim-order independence.  Participants claim indices one at a time, so
// which thread runs which index changes from run to run; the determinism
// contract — fn(i) may depend only on i — must make that invisible.  These
// suites pin it under exactly the conditions that would expose a
// violation: a strongly imbalanced per-index cost, several thread counts,
// and TSan.  (ChunkedWorkersStress is the suite's historical name: the
// loop claims "chunks" of one index.)
// ---------------------------------------------------------------------------

// A deliberately lopsided per-index computation: indices divisible by 16
// cost ~200x the rest, so a static split would leave most participants
// idle while claiming keeps them busy.  The result for index i is a fixed
// sequence of FP ops depending only on i — any scheduler that leaks state
// across indices or slots changes the bytes.
double imbalanced_value(std::size_t i) {
  const int iters = (i % 16 == 0) ? 4000 : 20;
  double x = static_cast<double>(i) + 1.0;
  for (int k = 0; k < iters; ++k) {
    x = x * 1.0000001 + 1.0 / x;
  }
  return x;
}

std::vector<double> imbalanced_values(std::size_t n, int threads) {
  std::vector<double> out(n, 0.0);
  parallel_for(n, threads,
               [&](int, std::size_t i) { out[i] = imbalanced_value(i); });
  return out;
}

TEST(ChunkedWorkersStress, BitwiseIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 1200;
  const std::vector<double> ref = imbalanced_values(kN, 1);
  for (const int threads : {2, 8}) {
    for (int rep = 0; rep < 4; ++rep) {
      ASSERT_EQ(imbalanced_values(kN, threads), ref)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ChunkedWorkersStress, CoversEveryIndexExactlyOnce) {
  // One-index claims maximize contention on the shared atomic counter; a
  // double-grant or a skipped tail would show up as a count != 1.
  std::vector<std::atomic<int>> seen(1013);
  const int slots = effective_threads(seen.size(), 8);
  parallel_for(seen.size(), 8, [&](int w, std::size_t i) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, slots);
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) ASSERT_EQ(s.load(), 1);
}

TEST(ChunkedWorkersStress, PerWorkerScratchStaysPerWorker) {
  // The slot is unique per concurrent thread within a loop, so
  // unsynchronized per-slot accumulators are safe (TSan verifies the
  // claim).
  std::vector<long long> per_slot(
      static_cast<std::size_t>(effective_threads(999, 6)), 0);
  parallel_for(999, 6, [&](int w, std::size_t i) {
    per_slot[static_cast<std::size_t>(w)] += static_cast<long long>(i) + 1;
  });
  long long total = 0;
  for (const long long v : per_slot) total += v;
  EXPECT_EQ(total, 999LL * 1000 / 2);
}

TEST(ChunkedWorkersStress, PropagatesExactlyOneException) {
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(256, 8, [&](int, std::size_t i) {
        if (i % 41 == 7) throw Error("chunk storm");
      });
      FAIL() << "must throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "chunk storm");
    }
  }
  // ...and the executor still runs a full loop afterwards.
  std::vector<double> after = imbalanced_values(300, 8);
  EXPECT_EQ(after, imbalanced_values(300, 1));
}

// ---------------------------------------------------------------------------
// Nested and concurrent callers: the executor is bounded and shared, so a
// loop body may run a loop (a batch request running a sweep) and several
// external threads may run loops at once.  Callers always drain their own
// loop, so neither case can deadlock, and the bytes never depend on it.
// ---------------------------------------------------------------------------

/// Row i: an inner loop over imbalanced values, folded in index order.
std::vector<double> nested_rows(std::size_t rows, std::size_t cols,
                                int threads) {
  std::vector<double> out(rows, 0.0);
  parallel_for(rows, threads, [&](int, std::size_t r) {
    std::vector<double> inner(cols, 0.0);
    parallel_for(cols, threads, [&](int, std::size_t c) {
      inner[c] = imbalanced_value(r * cols + c);
    });
    double acc = 0.0;
    for (const double v : inner) acc = acc * 0.5 + v;
    out[r] = acc;
  });
  return out;
}

TEST(ExecutorStress, NestedLoopsAreBitwiseEqualAndDoNotHang) {
  const std::vector<double> ref = nested_rows(24, 40, 1);
  for (const int threads : {2, 8}) {
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(nested_rows(24, 40, threads), ref)
          << "threads=" << threads << " rep=" << rep;
    }
  }
  // Three levels deep, every level asking for more slots than exist.
  std::atomic<int> leaves{0};
  parallel_for(4, 8, [&](int, std::size_t) {
    parallel_for(4, 8, [&](int, std::size_t) {
      parallel_for(4, 8, [&](int, std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ExecutorStress, ConcurrentExternalCallersEachGetTheirOwnLoop) {
  constexpr std::size_t kN = 700;
  const std::vector<double> ref = imbalanced_values(kN, 1);
  constexpr int kCallers = 2;
  std::vector<std::vector<double>> got(kCallers);
  std::vector<int> failed_rounds(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round) {
        // A flat and a nested loop per round, so the two callers' loops
        // interleave on the shared helpers in every combination.
        got[static_cast<std::size_t>(c)] = imbalanced_values(kN, 8);
        if (got[static_cast<std::size_t>(c)] != ref) {
          ++failed_rounds[static_cast<std::size_t>(c)];
        }
        (void)nested_rows(6, 10, 8);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(failed_rounds[static_cast<std::size_t>(c)], 0) << "caller " << c;
    EXPECT_EQ(got[static_cast<std::size_t>(c)], ref) << "caller " << c;
  }
}

// ---------------------------------------------------------------------------
// obs::Registry under contention: sharded counter cells and histogram
// shards are the engine's only metrics synchronization, so TSan gets the
// worst case — every thread hammering one handle — and the merged snapshot
// must still sum exactly.
// ---------------------------------------------------------------------------

TEST(ObsRegistryStress, ConcurrentIncrementsMergeExactly) {
  for (const int shards : {1, 4}) {
    obs::Registry reg(obs::Registry::Options{.shards = shards});
    obs::Counter hot = reg.counter("hot");
    obs::Histogram lat = reg.histogram("lat");
    constexpr std::size_t kTasks = 64;
    constexpr int kPerTask = 500;
    for (int round = 0; round < 4; ++round) {
      parallel_for(kTasks, 8, [&](int, std::size_t i) {
        for (int k = 0; k < kPerTask; ++k) {
          hot.inc();
          lat.record(static_cast<double>(i % 7) + 1.0);
        }
      });
    }
    const obs::Snapshot snap = reg.snapshot();
    constexpr std::uint64_t kExpected = 4ull * kTasks * kPerTask;
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].second, kExpected) << "shards=" << shards;
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, kExpected) << "shards=" << shards;
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : snap.histograms[0].buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, kExpected);
  }
}

TEST(ObsRegistryStress, RegistrationRacesRecording) {
  // Late registration (a surface registering its own counter mid-session)
  // must coexist with hot recording on other handles: registration takes
  // the registry mutex, recording never does.
  obs::Registry reg;
  obs::Counter hot = reg.counter("hot");
  parallel_for(600, 6, [&](int, std::size_t i) {
    if (i % 50 == 0) {
      obs::Counter fresh =
          reg.counter("late." + std::to_string(i / 50));
      fresh.inc();
    }
    hot.inc();
  });
  const obs::Snapshot snap = reg.snapshot();
  std::uint64_t hot_total = 0;
  std::uint64_t late_names = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "hot") hot_total = v;
    if (name.rfind("late.", 0) == 0) {
      ++late_names;
      EXPECT_EQ(v, 1u) << name;
    }
  }
  EXPECT_EQ(hot_total, 600u);
  EXPECT_EQ(late_names, 12u);
}

TEST(ObsTraceStress, ConcurrentSpansLandInPerThreadLanes) {
  obs::Tracer tracer;
  tracer.enable();
  constexpr std::size_t kTasks = 300;
  parallel_for(kTasks, 6, [&](int, std::size_t) {
    const obs::SpanScope outer(tracer, "outer");
    const obs::SpanScope inner(tracer, "inner");
  });
  EXPECT_EQ(tracer.span_count(), 2 * kTasks);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

// ---------------------------------------------------------------------------
// GraphCache: racing first touches of one key, of distinct keys, and mixed
// cold/warm get traffic.
// ---------------------------------------------------------------------------

core::GraphKey small_key(double scale) {
  return core::GraphKey{"lulesh", 8, scale, kS};
}

TEST(GraphCacheStress, ConcurrentSameKeyBuildsExactlyOnce) {
  core::GraphCache cache;
  constexpr std::size_t kCallers = 16;
  std::vector<const graph::Graph*> got(kCallers, nullptr);
  parallel_for(kCallers, static_cast<int>(kCallers), [&](int, std::size_t i) {
    got[i] = &cache.get(small_key(0.02));
  });
  for (const graph::Graph* g : got) EXPECT_EQ(g, got[0]);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, 1u);
  EXPECT_EQ(stats.hits, kCallers - 1);
}

TEST(GraphCacheStress, DistinctKeysBuildInParallelThenHit) {
  core::GraphCache cache;
  const std::vector<core::GraphKey> keys = {
      small_key(0.02), small_key(0.03), {"hpcg", 8, 0.02, kS},
      {"milc", 8, 0.02, kS}};
  // Concurrent first touches of distinct keys: each builds under its own
  // key's lock, in parallel, and none of them is a hit.
  std::vector<const graph::Graph*> built(keys.size(), nullptr);
  parallel_for(keys.size(), 8,
               [&](int, std::size_t i) { built[i] = &cache.get(keys[i]); });
  EXPECT_EQ(cache.stats().built, keys.size());
  EXPECT_EQ(cache.stats().hits, 0u) << "a first touch must not count a hit";
  EXPECT_EQ(std::set<const graph::Graph*>(built.begin(), built.end()).size(),
            keys.size());

  // Every later get, from any thread, is a pure lookup.
  constexpr std::size_t kLookups = 64;
  std::vector<const graph::Graph*> got(kLookups, nullptr);
  parallel_for(kLookups, 8, [&](int, std::size_t i) {
    got[i] = &cache.get(keys[i % keys.size()]);
  });
  EXPECT_EQ(cache.stats().built, keys.size());
  EXPECT_EQ(cache.stats().hits, kLookups);
  for (std::size_t i = 0; i < kLookups; ++i) {
    EXPECT_EQ(got[i], built[i % keys.size()]);
  }
}

TEST(GraphCacheStress, HammerMixedColdAndWarmKeys) {
  // Threads race gets across a small key set while some keys are still
  // cold, exercising slot creation (map mutex), first-touch builds (slot
  // mutex), and hit counting all at once.  The executor drives it so the
  // helpers and the cache are stressed together, engine-style.
  core::GraphCache cache;
  const std::vector<core::GraphKey> keys = {small_key(0.02), small_key(0.025),
                                            small_key(0.03)};
  std::vector<const graph::Graph*> by_key(keys.size(), nullptr);
  for (int round = 0; round < 6; ++round) {
    parallel_for(48, 8, [&](int, std::size_t i) {
      const std::size_t k = i % keys.size();
      const graph::Graph& g = cache.get(keys[k]);
      ASSERT_GT(g.num_vertices(), 0u);
    });
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    by_key[k] = &cache.get(keys[k]);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.built, keys.size());
  EXPECT_EQ(stats.hits, 6u * 48u + keys.size() - stats.built);
  EXPECT_EQ(std::set<const graph::Graph*>(by_key.begin(), by_key.end()).size(),
            keys.size());
}

}  // namespace
}  // namespace llamp
