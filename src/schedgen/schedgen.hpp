#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "schedgen/midop.hpp"
#include "schedgen/options.hpp"
#include "trace/trace.hpp"

namespace llamp::schedgen {

/// Schedgen: converts an MPI trace into an execution graph (§II-A).
///
/// Phase 1 infers computation from inter-event timestamp gaps and expands
/// collectives into point-to-point algorithms, producing per-rank MidOp
/// streams.  Phase 2 materializes graph vertices, chains program order,
/// matches sends to receives with MPI non-overtaking semantics, and emits
/// the protocol-specific edges (eager vs rendezvous, decided by
/// `Options::rendezvous_threshold`).
///
/// Throws TraceError / SchedError / GraphError on malformed input, unmatched
/// messages, or deadlocks (a cycle through rendezvous dependencies).
graph::Graph build_graph(const trace::Trace& t, const Options& opts = {});

/// Phase 1 in isolation, exposed for testing and for callers that want to
/// inspect or transform the p2p schedule before graph construction.
std::vector<MidStream> expand_trace(const trace::Trace& t, const Options& opts);

/// Phase 2 in isolation: build an execution graph from per-rank MidOp
/// streams (useful for hand-written schedules in tests and examples).
graph::Graph build_graph_from_streams(const std::vector<MidStream>& streams,
                                      const Options& opts = {});

/// The exact vertex and edge counts build_graph_from_streams produces for
/// well-formed streams (it reserves them up front, so graph construction
/// never regrows an array).
struct GraphSize {
  std::size_t vertices = 0;
  std::size_t edges = 0;
};
GraphSize count_graph(const std::vector<MidStream>& streams,
                      const Options& opts = {});

}  // namespace llamp::schedgen
