#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "apps/registry.hpp"
#include "schedgen/schedgen.hpp"
#include "test_support.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::schedgen {
namespace {

using graph::EdgeKind;
using graph::VertexKind;

std::size_t count_kind(const graph::Graph& g, VertexKind k) {
  std::size_t n = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    n += g.vertex(v).kind == k;
  }
  return n;
}

std::size_t count_edges(const graph::Graph& g, EdgeKind k) {
  std::size_t n = 0;
  for (const graph::Edge& e : g.edges()) n += e.kind == k;
  return n;
}

TEST(ComputeInference, GapsBecomeCalcVertices) {
  trace::TraceBuilder tb(2, /*op_duration=*/100.0);
  tb.compute(0, 5'000.0);
  tb.send(0, 1, 64);
  tb.recv(1, 0, 64);
  const auto streams = expand_trace(tb.finish(), Options{});
  // Rank 0: calc(5000) then send.
  ASSERT_GE(streams[0].size(), 2u);
  EXPECT_EQ(streams[0][0].kind, MidOp::Kind::kCalc);
  EXPECT_DOUBLE_EQ(streams[0][0].duration, 5'000.0);
  EXPECT_EQ(streams[0][1].kind, MidOp::Kind::kSend);
}

TEST(ComputeInference, ComputeScaleMultiplies) {
  trace::TraceBuilder tb(2);
  tb.compute(0, 1'000.0);
  tb.send(0, 1, 8);
  tb.recv(1, 0, 8);
  Options opt;
  opt.compute_scale = 2.5;
  const auto streams = expand_trace(tb.finish(), opt);
  EXPECT_DOUBLE_EQ(streams[0][0].duration, 2'500.0);
}

TEST(BlockingP2p, GraphShape) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 64);
  tb.recv(1, 0, 64);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_kind(g, VertexKind::kSend), 1u);
  EXPECT_EQ(count_kind(g, VertexKind::kRecv), 1u);
  EXPECT_EQ(count_kind(g, VertexKind::kPost), 0u);
  EXPECT_EQ(g.num_comm_edges(), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 0u);
  EXPECT_EQ(count_edges(g, EdgeKind::kSendCompletion), 0u);
}

TEST(NonblockingP2p, PostVertexAndNoIssueEdgeWhenEager) {
  trace::TraceBuilder tb(2);
  const auto rr = tb.irecv(1, 0, 64);
  tb.send(0, 1, 64);
  tb.compute(1, 500.0);
  tb.wait(1, rr);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_kind(g, VertexKind::kPost), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 0u);
}

TEST(Rendezvous, BlockingSendGetsCompletionAndIssueEdges) {
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  tb.send(0, 1, big);
  tb.compute(0, 1'000.0);  // the completion edge must land here
  tb.recv(1, 0, big);
  const auto g = build_graph(tb.finish());
  EXPECT_EQ(count_edges(g, EdgeKind::kIssue), 1u);
  EXPECT_EQ(count_edges(g, EdgeKind::kSendCompletion), 1u);
  // Comm edge carries the 3-hop handshake cost.
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kComm) {
      EXPECT_EQ(e.l_mult, 3);
    }
  }
}

TEST(Rendezvous, IsendCompletionLandsOnWait) {
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  const auto sr = tb.isend(0, 1, big);
  tb.compute(0, 2'000.0);
  tb.wait(0, sr);
  const auto rr = tb.irecv(1, 0, big);
  tb.wait(1, rr);
  const auto g = build_graph(tb.finish());
  std::size_t completion_edges = 0;
  for (const graph::Edge& e : g.edges()) {
    if (e.kind != EdgeKind::kSendCompletion) continue;
    ++completion_edges;
    // With a nonblocking receiver the handshake completion is anchored on
    // the send and post vertices (t_s' is independent of the receiver's
    // wait position); the target is the sender's wait (a zero-cost calc).
    EXPECT_TRUE(g.vertex(e.from).kind == VertexKind::kSend ||
                g.vertex(e.from).kind == VertexKind::kPost);
    EXPECT_EQ(g.vertex(e.to).kind, VertexKind::kCalc);
    EXPECT_EQ(g.vertex(e.to).rank, 0);
  }
  EXPECT_EQ(completion_edges, 2u);
  // Nonblocking rendezvous recv: issue edge originates at the post vertex
  // with no extra overhead (the post already paid its o).
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kIssue) {
      EXPECT_EQ(g.vertex(e.from).kind, VertexKind::kPost);
      EXPECT_EQ(e.o_mult, 0);
    }
  }
}

TEST(Rendezvous, ThresholdIsConfigurable) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 1'000);
  tb.recv(1, 0, 1'000);
  Options opt;
  opt.rendezvous_threshold = 512;
  const auto g = build_graph(tb.finish(), opt);
  for (const graph::Edge& e : g.edges()) {
    if (e.kind == EdgeKind::kComm) {
      EXPECT_EQ(e.l_mult, 3);
    }
  }
}

TEST(Deadlock, HeadToHeadRendezvousSendsThrow) {
  // Both ranks issue a blocking rendezvous send before their recv: a real
  // MPI deadlock, surfacing as a cycle through completion edges.
  trace::TraceBuilder tb(2);
  const std::uint64_t big = 512 * 1024;
  tb.send(0, 1, big);
  tb.send(1, 0, big);
  tb.recv(0, 1, big);
  tb.recv(1, 0, big);
  EXPECT_THROW((void)build_graph(tb.finish()), Error);
}

TEST(Deadlock, HeadToHeadEagerSendsAreFine) {
  trace::TraceBuilder tb(2);
  tb.send(0, 1, 64);
  tb.send(1, 0, 64);
  tb.recv(0, 1, 64);
  tb.recv(1, 0, 64);
  EXPECT_NO_THROW((void)build_graph(tb.finish()));
}

TEST(Matching, UnmatchedSendThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Matching, UnmatchedRecvThrows) {
  std::vector<MidStream> streams(2);
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Matching, CountMismatchThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 8, 0));
  streams[0].push_back(MidOp::send(1, 8, 0));
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

std::string sched_error(const std::vector<MidStream>& streams) {
  try {
    (void)build_graph_from_streams(streams, Options{});
  } catch (const SchedError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Matching, UnmatchedSendErrorNamesTheSmallestKey) {
  // Two unmatched channels, the larger key posted first: the error must
  // name the smallest (src, dst, tag) key whatever the table's order.
  std::vector<MidStream> streams(4);
  streams[3].push_back(MidOp::send(0, 8, 9));
  streams[1].push_back(MidOp::send(2, 8, 7));
  streams[1].push_back(MidOp::send(2, 8, 3));
  streams[2].push_back(MidOp::recv(1, 8, 7));
  EXPECT_EQ(sched_error(streams),
            "schedgen: unmatched messages 1->2 tag 3: 1 send(s) vs 0 "
            "recv(s)");
  streams[2].push_back(MidOp::recv(1, 8, 3));
  EXPECT_EQ(sched_error(streams),
            "schedgen: unmatched messages 3->0 tag 9: 1 send(s) vs 0 "
            "recv(s)");
}

TEST(Matching, SenderlessRecvErrorNamesTheSmallestKey) {
  std::vector<MidStream> streams(4);
  streams[2].push_back(MidOp::recv(3, 8, 0));
  streams[1].push_back(MidOp::recv(0, 8, 4));
  streams[1].push_back(MidOp::recv(0, 8, 4));
  EXPECT_EQ(sched_error(streams),
            "schedgen: 2 recv(s) 1<-0 tag 4 have no sender");
  streams[0].push_back(MidOp::send(1, 8, 4));
  streams[0].push_back(MidOp::send(1, 8, 4));
  EXPECT_EQ(sched_error(streams),
            "schedgen: 1 recv(s) 2<-3 tag 0 have no sender");
}

TEST(Matching, SendCountMismatchIsReportedBeforeSenderlessRecvs) {
  // A senderless channel with a smaller key than a short-received one:
  // count mismatches over all channels are reported first.
  std::vector<MidStream> streams(3);
  streams[1].push_back(MidOp::recv(0, 8, 0));
  streams[2].push_back(MidOp::send(1, 8, 0));
  EXPECT_EQ(sched_error(streams),
            "schedgen: unmatched messages 2->1 tag 0: 1 send(s) vs 0 "
            "recv(s)");
}

TEST(Matching, NonOvertakingOrderPreserved) {
  // Two same-tag messages: first send pairs with first posted recv.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 100, 0));
  streams[0].push_back(MidOp::send(1, 200, 0));
  streams[1].push_back(MidOp::recv(0, 100, 0));
  streams[1].push_back(MidOp::recv(0, 200, 0));
  EXPECT_NO_THROW((void)build_graph_from_streams(streams, Options{}));
  // Swapping recv sizes breaks pairing (size mismatch at comm edges).
  std::vector<MidStream> bad(2);
  bad[0].push_back(MidOp::send(1, 100, 0));
  bad[0].push_back(MidOp::send(1, 200, 0));
  bad[1].push_back(MidOp::recv(0, 200, 0));
  bad[1].push_back(MidOp::recv(0, 100, 0));
  EXPECT_THROW((void)build_graph_from_streams(bad, Options{}), Error);
}

TEST(Matching, TagsSeparateChannels) {
  // Same sizes, different tags, posted in "crossed" order: tags keep the
  // channels independent so this must match cleanly.
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::send(1, 100, 1));
  streams[0].push_back(MidOp::send(1, 100, 2));
  streams[1].push_back(MidOp::recv(0, 100, 2));
  streams[1].push_back(MidOp::recv(0, 100, 1));
  EXPECT_NO_THROW((void)build_graph_from_streams(streams, Options{}));
}

TEST(Waits, UnknownOrDuplicateWaitThrows) {
  std::vector<MidStream> streams(1);
  streams[0].push_back(MidOp::wait(7));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(Waits, MissingWaitThrows) {
  std::vector<MidStream> streams(2);
  streams[0].push_back(MidOp::isend(1, 8, 0, 1));
  streams[1].push_back(MidOp::recv(0, 8, 0));
  EXPECT_THROW((void)build_graph_from_streams(streams, Options{}), SchedError);
}

TEST(RandomPrograms, AlwaysBuildValidGraphs) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    testing::RandomProgramConfig cfg;
    cfg.seed = seed;
    cfg.nranks = 5;
    cfg.steps = 80;
    const auto t = testing::random_trace(cfg);
    graph::Graph g = build_graph(t);
    EXPECT_GT(g.num_vertices(), 0u);
    EXPECT_GT(g.num_comm_edges(), 0u);
  }
}


TEST(GraphSize, PreCountIsExact) {
  // build_graph_from_streams reserves count_graph's figures; they must be
  // exact or construction regrows its arrays.
  const auto check = [](const trace::Trace& t, std::uint64_t S) {
    Options opt;
    opt.rendezvous_threshold = S;
    const auto streams = expand_trace(t, opt);
    const GraphSize n = count_graph(streams, opt);
    const graph::Graph g = build_graph_from_streams(streams, opt);
    EXPECT_EQ(n.vertices, g.num_vertices()) << "S=" << S;
    EXPECT_EQ(n.edges, g.num_edges()) << "S=" << S;
  };
  for (const std::uint64_t S : {std::uint64_t{64}, std::uint64_t{4096},
                                std::uint64_t{256 * 1024}}) {
    for (const char* app : {"lulesh", "hpcg", "milc", "icon"}) {
      check(apps::make_app_trace(app, 8, 0.02), S);
    }
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      testing::RandomProgramConfig cfg;
      cfg.seed = seed;
      check(testing::random_trace(cfg), S);
    }
  }
}

// ---------------------------------------------------------------------------
// Graph-bytes golden wall: schedgen's output is pinned by a digest of every
// vertex, every edge in id order, and the topological order.  Any change to
// matching order, edge emission, or finalize() shows up here, not only in
// the downstream analysis bytes.
// ---------------------------------------------------------------------------

/// FNV-1a over the graph's fields, hashed field by field (never raw struct
/// bytes, whose padding is unspecified).
std::uint64_t graph_digest(const graph::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_int = [&mix](std::int64_t x) {
    mix(static_cast<std::uint64_t>(x));
  };
  mix_int(g.nranks());
  mix(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const graph::Vertex& x = g.vertex(v);
    mix(static_cast<std::uint64_t>(x.kind));
    mix_int(x.rank);
    mix_int(x.peer);
    mix_int(x.tag);
    mix(x.bytes);
    mix(std::bit_cast<std::uint64_t>(x.duration));
  }
  mix(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    mix(e.from);
    mix(e.to);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.o_mult);
    mix(e.l_mult);
    mix(e.bytes);
  }
  for (const graph::VertexId v : g.topo_order()) mix(v);
  return h;
}

std::string hex(std::uint64_t x) {
  return strformat("0x%016llx", static_cast<unsigned long long>(x));
}

struct GoldenGraph {
  const char* app;
  std::uint64_t S;
  const char* digest;
};

TEST(GraphGolden, AppGraphDigestsArePinned) {
  // Default threshold, plus one small S that turns most messages into
  // rendezvous (issue edges, handshake-completion edges).
  constexpr GoldenGraph kGolden[] = {
      {"lulesh", 256 * 1024, "0x1556b9b169bff242"},
      {"hpcg", 256 * 1024, "0x56b1a407587bedd0"},
      {"milc", 256 * 1024, "0x584b0d6612ffbc41"},
      {"icon", 256 * 1024, "0xb19133335fe5c5e0"},
      {"hpcg", 1024, "0x31dd3c6affbfeda2"},
  };
  for (const GoldenGraph& want : kGolden) {
    Options opt;
    opt.rendezvous_threshold = want.S;
    const graph::Graph g =
        build_graph(apps::make_app_trace(want.app, 8, 0.02), opt);
    EXPECT_EQ(hex(graph_digest(g)), want.digest)
        << want.app << "-8 scale 0.02 S=" << want.S;
  }
}

TEST(GraphGolden, RendezvousProgramDigestIsPinned) {
  // Blocking and nonblocking rendezvous exchanges mixed with collectives:
  // covers the blocking-receiver send-completion edge the app proxies
  // never emit.
  testing::RandomProgramConfig cfg;
  cfg.seed = 3;
  Options opt;
  opt.rendezvous_threshold = 4096;
  const graph::Graph g = build_graph(testing::random_trace(cfg), opt);
  std::size_t from_recv = 0;
  for (const graph::Edge& e : g.edges()) {
    from_recv += e.kind == EdgeKind::kSendCompletion &&
                 g.vertex(e.from).kind == VertexKind::kRecv;
  }
  EXPECT_GT(from_recv, 0u);
  EXPECT_GT(count_kind(g, VertexKind::kPost), 0u);
  EXPECT_EQ(hex(graph_digest(g)), "0x76eb63a06652b20e");
}

}  // namespace
}  // namespace llamp::schedgen
