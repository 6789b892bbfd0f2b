#include "core/solver_cache.hpp"

#include <algorithm>
#include <utility>

#include "lp/param_space.hpp"
#include "util/strings.hpp"

namespace llamp::core {
namespace {

/// Round-trip-exact fingerprints: %.17g reproduces any double bit for bit,
/// so two fingerprints compare equal iff the lowered cost arrays would.
std::string latency_fingerprint(const loggops::Params& p) {
  return strformat("latency;L=%.17g;o=%.17g;g=%.17g;G=%.17g;O=%.17g;S=%llu",
                   p.L, p.o, p.g, p.G, p.O,
                   static_cast<unsigned long long>(p.S));
}

std::string latency_bandwidth_fingerprint(const loggops::Params& p) {
  return strformat(
      "latency_bandwidth;L=%.17g;o=%.17g;g=%.17g;G=%.17g;O=%.17g;S=%llu",
      p.L, p.o, p.g, p.G, p.O, static_cast<unsigned long long>(p.S));
}

std::shared_ptr<const lp::ParamSpace> make_latency_space(
    const loggops::Params& p) {
  return std::make_shared<lp::LatencyParamSpace>(p);
}

std::shared_ptr<const lp::ParamSpace> make_latency_bandwidth_space(
    const loggops::Params& p) {
  return std::make_shared<lp::LatencyBandwidthParamSpace>(p);
}

}  // namespace

void SolverCache::Entry::sweep(int k, std::span<const double> xs,
                               lp::LoweredProblem::Cursor& cur,
                               lp::LoweredProblem::SweepEval* out) {
  using Anchor = lp::LoweredProblem::AnchorState;
  const lp::LoweredProblem& prob = *prob_;
  std::size_t solves = 0;
  std::size_t replays = 0;
  // The anchor of this call's last dense solve: an ascending grid walks a
  // basis piece from it exactly as LoweredProblem::sweep does, whether or
  // not the anchor store had room to publish it.
  std::shared_ptr<const Anchor> last;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (prob.flat()) {
      // Replay from any covering anchor is bitwise identical to a dense
      // solve (see the class contract), so which one serves x — and, among
      // overlapping published zones, scan order — cannot change the bytes.
      std::shared_ptr<const Anchor> hit =
          last && last->covers(k, x) ? last : nullptr;
      if (!hit) {
        const std::lock_guard<std::mutex> lock(anchor_mutex_);
        for (const auto& a : anchors_) {
          if (a->covers(k, x)) {
            hit = a;
            break;
          }
        }
      }
      if (hit) {
        ++replays;
        out[i] = prob.replay_anchor(*hit, k, x);
        continue;
      }
    }

    // Dense solve, then publish the anchor so later queries in this basis
    // piece (from any thread) replay instead.
    const auto& sol = prob.solve(k, x, cur);
    out[i] = {x, sol.value, sol.gradient[static_cast<std::size_t>(k)]};
    ++solves;
    if (!prob.flat()) continue;
    auto fresh = std::make_shared<Anchor>();
    prob.save_anchor(cur, *fresh);
    last = fresh;
    const std::lock_guard<std::mutex> lock(anchor_mutex_);
    if (anchors_.size() < kMaxAnchors) {
      const auto pos = std::lower_bound(
          anchors_.begin(), anchors_.end(), fresh,
          [](const auto& a, const auto& b) {
            if (a->solution.active != b->solution.active) {
              return a->solution.active < b->solution.active;
            }
            return a->solution.at < b->solution.at;
          });
      if (pos == anchors_.end() ||
          (*pos)->solution.active != fresh->solution.active ||
          (*pos)->solution.at != fresh->solution.at) {
        // Payload accounting by element size, not vector capacity —
        // capacities depend on the allocator's growth history, sizes only
        // on the published anchor set (deterministic per request sequence).
        owner_->anchor_bytes_.fetch_add(
            sizeof(Anchor) + fresh->chain.size() * sizeof(std::uint32_t) +
                fresh->solution.gradient.size() * sizeof(double),
            std::memory_order_relaxed);
        anchors_.insert(pos, std::move(fresh));
      }
    }
  }
  owner_->anchor_solves_.fetch_add(solves, std::memory_order_relaxed);
  owner_->replays_.fetch_add(replays, std::memory_order_relaxed);
}

std::size_t SolverCache::Entry::anchor_count() const {
  const std::lock_guard<std::mutex> lock(anchor_mutex_);
  return anchors_.size();
}

std::shared_ptr<SolverCache::Entry> SolverCache::entry_for(
    const SolverKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = entries_[key];
  if (!entry) {
    entry = std::shared_ptr<Entry>(new Entry());
    entry->owner_ = this;
  }
  return entry;
}

std::shared_ptr<SolverCache::Entry> SolverCache::get(const SolverKey& key,
                                                     const graph::Graph& g,
                                                     const loggops::Params& p,
                                                     SpaceFactory make) {
  const std::shared_ptr<Entry> entry = entry_for(key);
  // Per-key lock, GraphCache-style: concurrent first touches of one key
  // lower it once; lowerings of distinct keys proceed in parallel (the map
  // mutex is never held across a lowering).
  const std::lock_guard<std::mutex> lock(entry->build_mutex_);
  if (entry->prob_) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    entry->prob_ = std::make_shared<const lp::LoweredProblem>(g, make(p));
    built_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

std::shared_ptr<SolverCache::Entry> SolverCache::latency(
    const GraphKey& key, const graph::Graph& g, const loggops::Params& p) {
  return get({key, latency_fingerprint(p)}, g, p, &make_latency_space);
}

std::shared_ptr<SolverCache::Entry> SolverCache::latency_bandwidth(
    const GraphKey& key, const graph::Graph& g, const loggops::Params& p) {
  return get({key, latency_bandwidth_fingerprint(p)}, g, p,
             &make_latency_bandwidth_space);
}

SolverCache::Stats SolverCache::stats() const {
  return {built_.load(std::memory_order_relaxed),
          hits_.load(std::memory_order_relaxed),
          anchor_solves_.load(std::memory_order_relaxed),
          replays_.load(std::memory_order_relaxed),
          anchor_bytes_.load(std::memory_order_relaxed)};
}

}  // namespace llamp::core
