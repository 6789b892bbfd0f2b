#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace llamp::obs {

/// The session metrics registry (DESIGN.md §7): named counters, gauges, and
/// latency histograms behind pre-registered handles.
///
/// Contract split:
///
///  * **Registration** (`Registry::counter("name")` etc.) takes the registry
///    mutex and may allocate — it happens once, at session construction or
///    at a surface's entry point, never inside a hot path (the llamp-lint
///    `hot-metric` rule rejects string lookups inside declared hot-path
///    regions).
///  * **Recording** through a handle is wait-free on the common path: a
///    counter increment is one relaxed atomic add into a per-thread shard
///    cell, no lock, no lookup, no allocation.
///
/// Determinism: counter cells are sharded to keep concurrent increments
/// cheap, and a snapshot merges shards by exact integer summation in
/// deterministic name order — so merged counter values are independent of
/// the shard count, the thread count, and which thread bumped which shard
/// (pinned by the Obs.MergeDeterminism tests).  Histogram bucket counts
/// merge the same way, and a histogram's quantiles are computed from the
/// merged counts plus min/max only, so for a fixed multiset of recorded
/// values they do not depend on the shard count either.  Only the timing-
/// *valued* fields (sum, min/max, quantiles) vary run to run, because the
/// recorded durations themselves do.  Nothing in this file may ever feed
/// result bytes: metrics are a side channel beside the golden-pinned outputs.
class Registry;

namespace detail {

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

/// Round-robin slot allocator backing thread_shard_slot (one atomic bump
/// per thread lifetime).
std::size_t next_shard_slot();

/// This thread's stable shard slot, assigned round-robin on first use (the
/// slot is taken modulo each cell's shard count, so any shard count works).
inline std::size_t thread_shard_slot() {
  thread_local const std::size_t slot = next_shard_slot();
  return slot;
}

struct CounterCell {
  explicit CounterCell(std::size_t nshards) : shards(nshards) {}
  std::vector<PaddedCount> shards;
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

/// Log-linear (HDR-style) histogram buckets: bucket 0 holds values <= 1,
/// each power of two [2^k, 2^(k+1)) for k in [0, 45] splits into
/// kHistogramSubBuckets equal-width buckets, and the last bucket overflows
/// at 2^46 ns ≈ 19.5 hours, far beyond any request latency we time.  Every
/// bucket edge 2^k·(1 + s/16) is an exact dyadic value, and a bucket's width
/// is at most 1/16 of its lower edge.
inline constexpr std::size_t kHistogramSubBuckets = 16;
inline constexpr std::size_t kHistogramBuckets = 2 + 46 * kHistogramSubBuckets;

/// The bucket for a finite value: the octave from frexp's exponent, the
/// sub-bucket from its mantissa (both exact, unlike a std::log2 round trip).
std::size_t histogram_bucket(double v);

/// The inclusive lower edge of bucket b >= 1 (1.0 for the first octave's
/// first sub-bucket, 2^46 for the overflow bucket).
double histogram_bucket_lower(std::size_t b);

struct alignas(64) HistogramShard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> nonfinite{0};
  /// sum/min/max via CAS: a shard is normally touched by one thread, so
  /// the loops almost never retry.
  std::atomic<double> sum{0.0};
  std::atomic<double> min_v{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_v{-std::numeric_limits<double>::infinity()};
};

struct HistogramCell {
  explicit HistogramCell(std::size_t nshards) : shards(nshards) {}
  std::vector<HistogramShard> shards;
  void record(double v);
};

}  // namespace detail

/// Monotonic counter handle.  Trivially copyable; a default-constructed
/// handle is a safe no-op (so instrumented code never branches on "metrics
/// configured?").
class Counter {
 public:
  Counter() = default;

  /// One relaxed array-indexed add; safe from any thread, never allocates.
  void inc(std::uint64_t n = 1) {
    if (cell_ == nullptr) return;
    auto& shards = cell_->shards;
    shards[detail::thread_shard_slot() % shards.size()].v.fetch_add(
        n, std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Point-in-time value handle (cache bytes, pool size, occupancy).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(double d);

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Latency histogram handle over the fixed log-linear buckets above.
/// Values are nanoseconds by convention (TimeNs durations).
class Histogram {
 public:
  Histogram() = default;

  /// Record one observation: relaxed atomics into this thread's shard, no
  /// lock.  Non-finite values are counted separately (no bucket holds them).
  void record(double v) {
    if (cell_ != nullptr) cell_->record(v);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// A merged, name-sorted view of a registry (plus any values the owner
/// imports — the engine folds its cache statistics in before
/// emission, so external atomics don't need registry cells).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;      ///< finite observations (deterministic)
  std::uint64_t nonfinite = 0;  ///< rejected non-finite observations
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Quantiles from the merged buckets alone: rank interpolation inside
  /// the covering bucket, clamped to [min, max].  So they are monotone in
  /// q, independent of shard count and feed order, and within 1/16 relative
  /// error of the exact nearest-rank percentile for values in (1, 2^46).
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<std::uint64_t> buckets;  ///< merged log-linear bucket counts
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
  std::vector<std::pair<std::string, double>> gauges;           ///< sorted
  std::vector<HistogramSnapshot> histograms;                    ///< sorted

  /// Insert-or-assign keeping name order (for importing external stats).
  void set_counter(const std::string& name, std::uint64_t v);
  void set_gauge(const std::string& name, double v);

  /// Canonical single-line JSON: {"schema_version": 1, "counters": {...},
  /// "gauges": {...}, "histograms": {...}} with every object name-sorted.
  /// This is the payload of the `llamp serve` /metrics endpoint.
  /// Structure and counter values are deterministic for a fixed request
  /// sequence; gauge/histogram *values* may carry timings.
  std::string to_json() const;

  /// Human multi-line form (`llamp stats`): one "name value" line per
  /// metric, histograms as one summary line each.
  std::string to_string() const;
};

class Registry {
 public:
  struct Options {
    /// Counter/histogram shard count; <= 0 picks a fixed default.  Merged
    /// snapshots are shard-count independent, so this is purely a
    /// contention knob (1 is fine single-threaded, tests sweep it).
    int shards = 0;
  };
  Registry() : Registry(Options{}) {}
  explicit Registry(Options opts);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register-or-look-up by name.  Handles stay valid for the registry's
  /// lifetime (cells are never removed).  Takes the registry mutex — call
  /// at setup time, never in hot paths (llamp-lint: hot-metric).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Merge every cell into a name-sorted snapshot (see Snapshot).
  Snapshot snapshot() const;

  std::size_t shard_count() const { return shards_; }

 private:
  std::size_t shards_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace llamp::obs
