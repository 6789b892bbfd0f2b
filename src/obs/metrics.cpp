#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::obs {
namespace detail {

std::size_t next_shard_slot() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t histogram_bucket(double v) {
  if (!(v > 1.0)) return 0;
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // v lies in octave [2^(exp-1), 2^exp); m * 2 * kHistogramSubBuckets is
  // exact, so the sub-bucket's lower edge is inclusive.
  const auto sub = static_cast<std::size_t>(
                       m * static_cast<double>(2 * kHistogramSubBuckets)) -
                   kHistogramSubBuckets;
  const std::size_t b =
      1 + static_cast<std::size_t>(exp - 1) * kHistogramSubBuckets + sub;
  return std::min(b, kHistogramBuckets - 1);
}

double histogram_bucket_lower(std::size_t b) {
  const std::size_t i = b - 1;
  const double frac = static_cast<double>(i % kHistogramSubBuckets) /
                      static_cast<double>(kHistogramSubBuckets);
  return std::ldexp(1.0 + frac, static_cast<int>(i / kHistogramSubBuckets));
}

namespace {

void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void HistogramCell::record(double v) {
  HistogramShard& s = shards[thread_shard_slot() % shards.size()];
  if (!std::isfinite(v)) {
    s.nonfinite.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.buckets[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(s.sum, v);
  atomic_min(s.min_v, v);
  atomic_max(s.max_v, v);
}

}  // namespace detail

void Gauge::add(double d) {
  if (cell_ == nullptr) return;
  detail::atomic_add(cell_->value, d);
}

Registry::Registry(Options opts)
    : shards_(opts.shards > 0 ? static_cast<std::size_t>(opts.shards) : 8) {}

Counter Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<detail::CounterCell>(shards_);
  return Counter(cell.get());
}

Gauge Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

Histogram Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (!cell) cell = std::make_unique<detail::HistogramCell>(shards_);
  return Histogram(cell.get());
}

namespace {

/// Quantile estimate from merged bucket counts: linear interpolation on
/// rank inside the covering bucket, clamped to the exact [min, max].  The
/// covering bucket holds the nearest-rank value, so the error is at most
/// that bucket's width (1/16 of its lower edge).
double bucket_quantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double cum = 0.0;
  double est = h.max;  // kept only if a racing record left buckets < count
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const double c = static_cast<double>(h.buckets[b]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      if (b == 0) {
        est = 1.0;  // the "<= 1" bucket: report its upper edge
      } else if (b == detail::kHistogramBuckets - 1) {
        est = detail::histogram_bucket_lower(b);  // overflow
      } else {
        const double lo = detail::histogram_bucket_lower(b);
        const double hi = detail::histogram_bucket_lower(b + 1);
        est = lo + (hi - lo) * ((target - cum) / c);
      }
      break;
    }
    cum += c;
  }
  // min/max rather than std::clamp: a snapshot racing a record may see
  // the count before the shard's min/max, and must not hit clamp's UB.
  return std::min(std::max(est, h.min), h.max);
}

}  // namespace

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, cell] : counters_) {
    std::uint64_t total = 0;
    for (const auto& shard : cell->shards) {
      total += shard.v.load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(name, total);
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace_back(name,
                             cell->value.load(std::memory_order_relaxed));
  }
  for (const auto& [name, cell] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.buckets.assign(detail::kHistogramBuckets, 0);
    double min_v = std::numeric_limits<double>::infinity();
    double max_v = -std::numeric_limits<double>::infinity();
    for (const auto& shard : cell->shards) {
      const std::uint64_t c = shard.count.load(std::memory_order_relaxed);
      h.count += c;
      h.nonfinite += shard.nonfinite.load(std::memory_order_relaxed);
      if (c == 0) continue;
      h.sum += shard.sum.load(std::memory_order_relaxed);
      min_v = std::min(min_v, shard.min_v.load(std::memory_order_relaxed));
      max_v = std::max(max_v, shard.max_v.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < detail::kHistogramBuckets; ++b) {
        h.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (h.count > 0) {
      h.min = min_v;
      h.max = max_v;
    }
    h.p50 = bucket_quantile(h, 0.50);
    h.p95 = bucket_quantile(h, 0.95);
    h.p99 = bucket_quantile(h, 0.99);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void Snapshot::set_counter(const std::string& name, std::uint64_t v) {
  const auto pos = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& a, const std::string& b) { return a.first < b; });
  if (pos != counters.end() && pos->first == name) {
    pos->second = v;
  } else {
    counters.insert(pos, {name, v});
  }
}

void Snapshot::set_gauge(const std::string& name, double v) {
  const auto pos = std::lower_bound(
      gauges.begin(), gauges.end(), name,
      [](const auto& a, const std::string& b) { return a.first < b; });
  if (pos != gauges.end() && pos->first == name) {
    pos->second = v;
  } else {
    gauges.insert(pos, {name, v});
  }
}

std::string Snapshot::to_json() const {
  std::string out = "{\"schema_version\": 1, \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += strformat("%s\"%s\": %llu", first ? "" : ", ",
                     json_escape_string(name).c_str(),
                     static_cast<unsigned long long>(v));
    first = false;
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += strformat("%s\"%s\": %s", first ? "" : ", ",
                     json_escape_string(name).c_str(),
                     json_double(v).c_str());
    first = false;
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += strformat(
        "%s\"%s\": {\"count\": %llu, \"nonfinite\": %llu, \"sum\": %s, "
        "\"min\": %s, \"max\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
        first ? "" : ", ", json_escape_string(h.name).c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.nonfinite),
        json_double(h.sum).c_str(), json_double(h.min).c_str(),
        json_double(h.max).c_str(), json_double(h.p50).c_str(),
        json_double(h.p95).c_str(), json_double(h.p99).c_str());
    first = false;
  }
  out += "}}";
  return out;
}

std::string Snapshot::to_string() const {
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, v] : counters) {
      out += strformat("  %-32s %llu\n", name.c_str(),
                       static_cast<unsigned long long>(v));
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : gauges) {
      out += strformat("  %-32s %g\n", name.c_str(), v);
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const HistogramSnapshot& h : histograms) {
      const double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      out += strformat(
          "  %-32s count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
          "min=%.1f max=%.1f\n",
          h.name.c_str(), static_cast<unsigned long long>(h.count), mean,
          h.p50, h.p95, h.p99, h.min, h.max);
    }
  }
  return out;
}

}  // namespace llamp::obs
