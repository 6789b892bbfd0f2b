#include "core/graph_cache.hpp"

#include <vector>

#include "apps/registry.hpp"
#include "obs/metrics.hpp"
#include "schedgen/schedgen.hpp"

namespace llamp::core {

std::unique_ptr<graph::Graph> GraphCache::build(const GraphKey& key) {
  schedgen::Options opt;
  opt.rendezvous_threshold = key.S;
  // The trace is a temporary of the expansion, so it is freed before the
  // graph is built: the two are never resident together.
  const std::vector<schedgen::MidStream> streams = schedgen::expand_trace(
      apps::make_app_trace(key.app, key.ranks, key.scale), opt);
  return std::make_unique<graph::Graph>(
      schedgen::build_graph_from_streams(streams, opt));
}

std::shared_ptr<GraphCache::Slot> GraphCache::slot_for(const GraphKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = graphs_[key];
  if (!slot) slot = std::make_shared<Slot>();
  return slot;
}

const graph::Graph& GraphCache::get(const GraphKey& key) {
  const std::shared_ptr<Slot> slot = slot_for(key);
  // Per-key lock: the first caller builds, concurrent callers of the same
  // key wait for that build and count as hits; builds of distinct keys
  // proceed in parallel (the map mutex is never held across a build, and
  // the atomic tallies never re-enter it).
  const std::lock_guard<std::mutex> lock(slot->build_mutex);
  if (slot->graph) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *slot->graph;
  }
  slot->graph = build(key);
  built_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(slot->graph->memory_bytes(), std::memory_order_relaxed);
  return *slot->graph;
}

GraphCache::Stats GraphCache::stats() const {
  return {built_.load(std::memory_order_relaxed),
          hits_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed)};
}

std::string GraphCache::stats_string() const {
  const Stats s = stats();
  return obs::stats_line(
      "graphs", {{"built", s.built}, {"hits", s.hits}, {"bytes", s.bytes}});
}

}  // namespace llamp::core
