// Concurrency stress for the long-lived shared structures behind the
// api::Engine: util/parallel::ThreadPool (persistent workers reused across
// jobs), core::GraphCache (build-once graphs behind per-key locks), and
// the obs registry/tracer (sharded metric cells, per-thread span lanes).
// These suites are the primary target of the ThreadSanitizer CI job — they
// are written to maximize contention, not coverage: many tiny jobs, many
// threads racing one key, exceptions thrown mid-job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
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
// ThreadPool under reuse pressure.
// ---------------------------------------------------------------------------

TEST(ThreadPoolStress, ManyTinyJobsBackToBack) {
  // Hundreds of small jobs on one pool: every submission re-publishes job_
  // and re-arms the generation/remaining handshake, which is where a
  // missed-wakeup or torn-read bug would live.
  ThreadPool pool(8);
  for (int round = 0; round < 400; ++round) {
    std::atomic<long long> sum{0};
    const std::size_t n = 1 + static_cast<std::size_t>(round % 37);
    pool.for_workers(n, 0, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<long long>(i) + 1, std::memory_order_relaxed);
    });
    const long long nn = static_cast<long long>(n);
    ASSERT_EQ(sum.load(), nn * (nn + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolStress, ExceptionStormLeavesPoolServiceable) {
  // Alternate failing and clean jobs; a failed job must drain fully (no
  // worker left running into the next job's state) and rethrow exactly one
  // exception on the caller.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> ran{0};
    try {
      pool.for_workers(64, 0, [&](int, std::size_t i) {
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
  pool.for_workers(32, 0, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolStress, WorkerScratchStaysPerWorker) {
  // Per-worker accumulators indexed by the worker id: if two threads ever
  // shared a worker index concurrently, TSan would flag the unsynchronized
  // writes and the totals would drift.
  ThreadPool pool(6);
  for (int round = 0; round < 50; ++round) {
    std::vector<long long> per_worker(static_cast<std::size_t>(pool.size()),
                                      0);
    pool.for_workers(257, 0, [&](int w, std::size_t i) {
      per_worker[static_cast<std::size_t>(w)] +=
          static_cast<long long>(i) + 1;
    });
    long long total = 0;
    for (const long long v : per_worker) total += v;
    ASSERT_EQ(total, 257LL * 258 / 2);
  }
}

// ---------------------------------------------------------------------------
// parallel_for_workers_chunked: the chunk-claiming scheduler behind the MC
// general path.  Its determinism contract is the same as the strided
// variant — fn(i) may depend only on i — and these suites pin it under
// exactly the conditions that would expose a violation: a strongly
// imbalanced per-index cost, several thread counts, and TSan (this file is
// part of the ThreadSanitizer CI job).
// ---------------------------------------------------------------------------

// A deliberately lopsided per-index computation: indices divisible by 16
// cost ~200x the rest, so static striding would leave most workers idle
// while chunk claiming keeps them busy.  The result for index i is a fixed
// sequence of FP ops depending only on i — any scheduler that leaks state
// across indices or workers changes the bytes.
double imbalanced_value(std::size_t i) {
  const int iters = (i % 16 == 0) ? 4000 : 20;
  double x = static_cast<double>(i) + 1.0;
  for (int k = 0; k < iters; ++k) {
    x = x * 1.0000001 + 1.0 / x;
  }
  return x;
}

TEST(ChunkedWorkersStress, BitwiseIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 1200;
  std::vector<double> ref(kN, 0.0);
  parallel_for_workers_chunked(kN, 1, 4, [&](int, std::size_t i) {
    ref[i] = imbalanced_value(i);
  });
  for (const int threads : {2, 8}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, kN + 1}) {
      std::vector<double> got(kN, 0.0);
      parallel_for_workers_chunked(kN, threads, chunk,
                                   [&](int, std::size_t i) {
                                     got[i] = imbalanced_value(i);
                                   });
      ASSERT_EQ(got, ref) << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(ChunkedWorkersStress, CoversEveryIndexExactlyOnce) {
  // Tiny chunks maximize claim contention on the shared atomic counter;
  // a double-grant or a skipped tail would show up as a count != 1.
  std::vector<std::atomic<int>> seen(1013);
  parallel_for_workers_chunked(seen.size(), 8, 1, [&](int w, std::size_t i) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 8);
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) ASSERT_EQ(s.load(), 1);
}

TEST(ChunkedWorkersStress, ZeroChunkMeansOne) {
  std::vector<std::atomic<int>> seen(64);
  parallel_for_workers_chunked(seen.size(), 4, 0, [&](int, std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) ASSERT_EQ(s.load(), 1);
}

TEST(ChunkedWorkersStress, PerWorkerScratchStaysPerWorker) {
  // Same invariant the strided variant and ThreadPool guarantee: the worker
  // id is unique per concurrent thread, so unsynchronized per-worker
  // accumulators are safe (TSan verifies the claim).
  constexpr int kWorkers = 6;
  std::vector<long long> per_worker(kWorkers, 0);
  parallel_for_workers_chunked(999, kWorkers, 5, [&](int w, std::size_t i) {
    per_worker[static_cast<std::size_t>(w)] += static_cast<long long>(i) + 1;
  });
  long long total = 0;
  for (const long long v : per_worker) total += v;
  EXPECT_EQ(total, 999LL * 1000 / 2);
}

TEST(ChunkedWorkersStress, PropagatesExactlyOneException) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    try {
      parallel_for_workers_chunked(256, 8, 3, [&](int, std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 41 == 7) throw Error("chunk storm");
      });
      FAIL() << "must throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "chunk storm");
    }
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
    ThreadPool pool(8);
    constexpr std::size_t kTasks = 64;
    constexpr int kPerTask = 500;
    for (int round = 0; round < 4; ++round) {
      pool.for_workers(kTasks, 0, [&](int, std::size_t i) {
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
  ThreadPool pool(6);
  pool.for_workers(600, 0, [&](int, std::size_t i) {
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
  ThreadPool pool(6);
  constexpr std::size_t kTasks = 300;
  pool.for_workers(kTasks, 0, [&](int, std::size_t) {
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
  parallel_for(kCallers, static_cast<int>(kCallers), [&](std::size_t i) {
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
               [&](std::size_t i) { built[i] = &cache.get(keys[i]); });
  EXPECT_EQ(cache.stats().built, keys.size());
  EXPECT_EQ(cache.stats().hits, 0u) << "a first touch must not count a hit";
  EXPECT_EQ(std::set<const graph::Graph*>(built.begin(), built.end()).size(),
            keys.size());

  // Every later get, from any thread, is a pure lookup.
  constexpr std::size_t kLookups = 64;
  std::vector<const graph::Graph*> got(kLookups, nullptr);
  parallel_for(kLookups, 8, [&](std::size_t i) {
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
  // mutex), and hit counting all at once.  ThreadPool drives it so the
  // pool and the cache are stressed together, engine-style.
  core::GraphCache cache;
  const std::vector<core::GraphKey> keys = {small_key(0.02), small_key(0.025),
                                            small_key(0.03)};
  ThreadPool pool(8);
  std::vector<const graph::Graph*> by_key(keys.size(), nullptr);
  for (int round = 0; round < 6; ++round) {
    pool.for_workers(48, 0, [&](int, std::size_t i) {
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
