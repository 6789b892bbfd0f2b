#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "loggops/params.hpp"
#include "lp/parametric.hpp"

namespace llamp::core {

/// The key under which a lowered parametric LP is shared: the execution
/// graph's key plus a ParamSpace fingerprint — the space kind and the exact
/// value of every parameter that enters the lowering (L/o/g/G/O/S for the
/// latency spaces), formatted round-trip exact.  Two requests whose
/// resolved scenarios print the same fingerprint lower bit-identical cost
/// arrays, so they may share one LoweredProblem.
struct SolverKey {
  GraphKey graph;
  std::string space;

  friend bool operator<(const SolverKey& a, const SolverKey& b) {
    if (a.graph < b.graph) return true;
    if (b.graph < a.graph) return false;
    return a.space < b.space;
  }
  friend bool operator==(const SolverKey& a, const SolverKey& b) {
    return a.graph == b.graph && a.space == b.space;
  }
};

/// Thread-safe build-once cache of lowered parametric LPs plus their
/// reusable anchor state, living beside GraphCache in an api::Engine
/// session (DESIGN.md §4e).  Two levels of reuse:
///
///  * the **lowering** — the immutable lp::LoweredProblem (CSR/SoA cost
///    arrays, topo permutation) is built once per key and shared by every
///    later request and every thread;
///  * the **anchor state** — each entry keeps a bounded set of
///    AnchorState snapshots published by past dense solves, so a point
///    query landing inside a known stability zone is served by
///    critical-path replay (microseconds) instead of a full forward pass.
///
/// Determinism contract: replay from *any* covering anchor is bitwise
/// identical to a dense solve at that point (the PR 3 segment-walk
/// equivalence, pinned by the hot-path test wall), so a sweep()'s bytes
/// can never depend on the cache being cold, warm, shared across threads,
/// or on which of several overlapping anchors serves the query.  Response
/// bytes must never include the cache's counters.
///
/// Invalidation: there is none, by construction.  Graphs are immutable and
/// never evicted from GraphCache, and the fingerprint pins every input of
/// the lowering, so a key fully determines its problem forever.  Entries
/// hold no back-reference to the graph beyond the one the caller passed;
/// the caller must pass the graph cached under `key.graph` (the GraphCache
/// contract keeps it alive for the session).  Entries must not outlive the
/// cache that created them.
class SolverCache {
 public:
  SolverCache() = default;
  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// One cached lowering plus its published anchors.  Handles are shared
  /// pointers so a request can hold its entry across the whole analysis
  /// without touching the cache map again.
  class Entry {
   public:
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    /// The shared immutable lowering (never null once handed out).
    const std::shared_ptr<const lp::LoweredProblem>& problem() const {
      return prob_;
    }

    /// T and λ for parameter `k` at every value of `xs`, in any order,
    /// writing xs.size() entries to `out`.  Each point is served by the
    /// first of: a replay from the anchor of this call's own last dense
    /// solve (the segment walk's locality, which survives a full anchor
    /// store), a replay from a published anchor whose stability zone covers
    /// it, or a dense solve through `cur` whose anchor is then published
    /// for later queries.  Every point is bitwise identical to
    /// problem()->solve(k, x) whichever serves it.  Safe to call
    /// concurrently from any number of threads, each with its own cursor.
    void sweep(int k, std::span<const double> xs,
               lp::LoweredProblem::Cursor& cur,
               lp::LoweredProblem::SweepEval* out);

    /// The one-point sweep.
    lp::LoweredProblem::SweepEval eval(int k, double x,
                                       lp::LoweredProblem::Cursor& cur) {
      lp::LoweredProblem::SweepEval out;
      sweep(k, std::span(&x, 1), cur, &out);
      return out;
    }

    /// Published anchors (observability/tests).
    std::size_t anchor_count() const;

   private:
    friend class SolverCache;
    Entry() = default;

    /// Bound on published anchors per entry, small enough that the linear
    /// covering scan stays trivially cheap.  It does not blanket every
    /// grid: a 200-point hpcg-64 sweep crosses 85 basis pieces at scale
    /// 0.05 and 119 at scale 1, most of them narrow and at low ΔL.  Points
    /// past the cap are still served by sweep()'s own last anchor.  Once
    /// full, new anchors are dropped (never evicted — eviction order could
    /// vary across runs, and although replay-vs-dense bytes are identical
    /// by contract, a fixed set keeps the served path itself reproducible).
    static constexpr std::size_t kMaxAnchors = 64;

    std::mutex build_mutex_;
    std::shared_ptr<const lp::LoweredProblem> prob_;
    mutable std::mutex anchor_mutex_;
    /// Sorted by (active, at), deduplicated on exact (active, at).
    std::vector<std::shared_ptr<const lp::LoweredProblem::AnchorState>>
        anchors_;
    SolverCache* owner_ = nullptr;
  };

  /// The cached LatencyParamSpace lowering of (key, p) over `g` — `g` MUST
  /// be the graph cached under `key` (same object for the session).  Builds
  /// under a per-key lock on first use: concurrent first touches build one
  /// key once, distinct keys build in parallel.
  std::shared_ptr<Entry> latency(const GraphKey& key, const graph::Graph& g,
                                 const loggops::Params& p);

  /// Same for the two-parameter LatencyBandwidthParamSpace (λ_G reads).
  /// Its edges carry two terms, so it lowers to the CSR fallback — sweep()
  /// always dense-solves — but the lowering itself is still shared.
  std::shared_ptr<Entry> latency_bandwidth(const GraphKey& key,
                                           const graph::Graph& g,
                                           const loggops::Params& p);

  struct Stats {
    std::size_t built = 0;          ///< lowerings constructed (misses)
    std::size_t hits = 0;           ///< lookups served an existing lowering
    std::size_t anchor_solves = 0;  ///< sweep() dense forward passes
    std::size_t replays = 0;        ///< sweep() points served by replay
    std::size_t anchor_bytes = 0;   ///< payload bytes of published anchors
  };
  /// Cumulative statistics, GraphCache-style relaxed atomics: monotonic
  /// tallies, not an instantaneous cut across counters.  `anchor_bytes`
  /// counts payload sizes (not vector capacities) so the tally is
  /// deterministic for a fixed request sequence.
  Stats stats() const;

 private:
  std::shared_ptr<Entry> entry_for(const SolverKey& key);
  using SpaceFactory =
      std::shared_ptr<const lp::ParamSpace> (*)(const loggops::Params&);
  std::shared_ptr<Entry> get(const SolverKey& key, const graph::Graph& g,
                             const loggops::Params& p, SpaceFactory make);

  std::mutex mutex_;  ///< guards entries_ only
  std::map<SolverKey, std::shared_ptr<Entry>> entries_;
  std::atomic<std::size_t> built_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> anchor_solves_{0};
  std::atomic<std::size_t> replays_{0};
  std::atomic<std::size_t> anchor_bytes_{0};
};

}  // namespace llamp::core
