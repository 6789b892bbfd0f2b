#include "schedgen/schedgen.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "schedgen/collectives.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::schedgen {

namespace {

/// Request ids generated for collective expansions live far above any id a
/// tracer would produce, so they can share the per-rank id space.
constexpr std::int64_t kCollectiveReqBase = std::int64_t{1} << 40;

}  // namespace

std::vector<MidStream> expand_trace(const trace::Trace& t,
                                    const Options& opts) {
  t.validate();
  const int P = t.nranks();
  std::vector<MidStream> streams(static_cast<std::size_t>(P));
  std::vector<std::int64_t> next_req(static_cast<std::size_t>(P),
                                     kCollectiveReqBase);
  for (int r = 0; r < P; ++r) {
    MidStream& out = streams[static_cast<std::size_t>(r)];
    TimeNs prev_end = 0.0;
    bool first = true;
    for (const trace::Event& e : t.rank(r)) {
      if (!first) {
        const TimeNs gap = (e.start - prev_end) * opts.compute_scale;
        if (gap > 0.0) out.push_back(MidOp::calc(gap));
      }
      first = false;
      prev_end = e.end;
      switch (e.op) {
        case trace::Op::kInit:
        case trace::Op::kFinalize:
          break;
        case trace::Op::kSend:
          out.push_back(MidOp::send(e.peer, e.bytes, e.tag));
          break;
        case trace::Op::kRecv:
          out.push_back(MidOp::recv(e.peer, e.bytes, e.tag));
          break;
        case trace::Op::kIsend:
          out.push_back(MidOp::isend(e.peer, e.bytes, e.tag, e.request));
          break;
        case trace::Op::kIrecv:
          out.push_back(MidOp::irecv(e.peer, e.bytes, e.tag, e.request));
          break;
        case trace::Op::kWait:
          out.push_back(MidOp::wait(e.request));
          break;
        case trace::Op::kBarrier:
          expand_barrier({out, r, P, next_req[static_cast<std::size_t>(r)]},
                         opts.barrier);
          break;
        case trace::Op::kBcast:
          expand_bcast({out, r, P, next_req[static_cast<std::size_t>(r)]},
                       e.bytes, e.root, opts.bcast);
          break;
        case trace::Op::kReduce:
          expand_reduce({out, r, P, next_req[static_cast<std::size_t>(r)]},
                        e.bytes, e.root, opts.reduce);
          break;
        case trace::Op::kAllreduce:
          expand_allreduce({out, r, P, next_req[static_cast<std::size_t>(r)]},
                           e.bytes, opts.allreduce);
          break;
        case trace::Op::kAllgather:
          expand_allgather({out, r, P, next_req[static_cast<std::size_t>(r)]},
                           e.bytes, opts.allgather);
          break;
        case trace::Op::kReduceScatter:
          expand_reduce_scatter(
              {out, r, P, next_req[static_cast<std::size_t>(r)]}, e.bytes,
              opts.reduce_scatter);
          break;
        case trace::Op::kGather:
          expand_gather({out, r, P, next_req[static_cast<std::size_t>(r)]},
                        e.bytes, e.root, opts.gather);
          break;
        case trace::Op::kScatter:
          expand_scatter({out, r, P, next_req[static_cast<std::size_t>(r)]},
                         e.bytes, e.root, opts.scatter);
          break;
        case trace::Op::kAlltoall:
          expand_alltoall({out, r, P, next_req[static_cast<std::size_t>(r)]},
                          e.bytes, opts.alltoall);
          break;
      }
    }
  }
  return streams;
}

namespace {

using graph::kInvalidVertex;
using graph::VertexId;

using MatchKey = std::tuple<int, int, int>;  // (src, dst, tag)

struct MatchKeyHash {
  std::size_t operator()(const MatchKey& k) const noexcept {
    // Pack the triple into 64 bits, then the SplitMix64 finalizer.
    const auto u = [](int x) {
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(x));
    };
    std::uint64_t x = (u(std::get<0>(k)) << 32 | u(std::get<1>(k))) ^
                      u(std::get<2>(k)) * 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// One (src, dst, tag) match channel: its sends and posted receives, each
/// in program order.
struct Channel {
  struct Send {
    VertexId vertex = kInvalidVertex;
    /// For rendezvous sends: where the sender-completion edge must point
    /// (the wait vertex for isend, the program successor for a blocking
    /// send).
    VertexId completion = kInvalidVertex;
  };
  struct Recv {
    VertexId vertex = kInvalidVertex;  ///< set by the wait for irecvs
    VertexId post = kInvalidVertex;    ///< kInvalidVertex for blocking recvs
  };
  std::vector<Send> sends;
  std::vector<Recv> recvs;
};

/// State tracked while materializing one rank's stream into graph vertices.
struct RequestInfo {
  bool is_recv = false;
  std::int32_t peer = -1;
  std::uint64_t bytes = 0;
  std::int32_t tag = 0;
  // The request's match slot: channel->sends[slot] or channel->recvs[slot].
  // Channel addresses are stable (unordered_map never moves its nodes).
  Channel* channel = nullptr;
  std::size_t slot = 0;
  bool waited = false;
};

}  // namespace

GraphSize count_graph(const std::vector<MidStream>& streams,
                      const Options& opts) {
  GraphSize n;
  for (const MidStream& stream : streams) {
    // Opening and closing sentinels; the closing one is chained.
    n.vertices += 2;
    n.edges += 1;
    for (const MidOp& op : stream) {
      // Every op materializes one vertex chained (or issue-edged) to its
      // predecessor.
      n.vertices += 1;
      n.edges += 1;
      const bool rdzv = op.bytes >= opts.rendezvous_threshold;
      switch (op.kind) {
        case MidOp::Kind::kCalc:
        case MidOp::Kind::kWait:
          break;
        case MidOp::Kind::kSend:
          n.edges += 1;  // comm edge
          if (rdzv) {    // chained completion anchor
            n.vertices += 1;
            n.edges += 1;
          }
          break;
        case MidOp::Kind::kIsend:
          n.edges += 1;  // comm edge; the wait's vertex is its own op
          break;
        case MidOp::Kind::kRecv:
          if (rdzv) n.edges += 1;  // blocking-receiver completion edge
          break;
        case MidOp::Kind::kIrecv:
          // The wait's issue edge plus the two handshake-completion edges.
          if (rdzv) n.edges += 3;
          break;
      }
    }
  }
  return n;
}

graph::Graph build_graph_from_streams(const std::vector<MidStream>& streams,
                                      const Options& opts) {
  const int P = static_cast<int>(streams.size());
  if (P == 0) throw SchedError("no ranks");
  graph::Graph g(P);
  const GraphSize size = count_graph(streams, opts);
  g.reserve(size.vertices, size.edges);

  const auto rdzv = [&](std::uint64_t bytes) {
    return bytes >= opts.rendezvous_threshold;
  };

  // Global match channels; matched below in sorted key order.
  std::unordered_map<MatchKey, Channel, MatchKeyHash> channels;

  for (int r = 0; r < P; ++r) {
    std::unordered_map<std::int64_t, RequestInfo> requests;
    // Every rank starts and ends with a zero-cost calc sentinel so that all
    // chains (and rendezvous completion edges) have anchors.
    VertexId prev = g.add_calc(r, 0.0);

    const auto chain = [&](VertexId v, bool add_local = true) {
      if (add_local) g.add_local_edge(prev, v);
      prev = v;
    };
    const auto add_request = [&](const MidOp& op, RequestInfo info) {
      if (!requests.emplace(op.request, info).second) {
        throw SchedError(strformat("rank %d: duplicate request %lld", r,
                                   static_cast<long long>(op.request)));
      }
    };

    for (const MidOp& op : streams[static_cast<std::size_t>(r)]) {
      switch (op.kind) {
        case MidOp::Kind::kCalc: {
          chain(g.add_calc(r, op.duration));
          break;
        }
        case MidOp::Kind::kSend: {
          const VertexId v = g.add_send(r, op.peer, op.bytes, op.tag);
          chain(v);
          Channel::Send send{v, kInvalidVertex};
          if (rdzv(op.bytes)) {
            // A blocking rendezvous send is an isend plus an implicit wait:
            // materialize the completion point as a zero-cost anchor so that
            // everything downstream (including a following rendezvous
            // receive's issue time) starts from t_s', not from the send
            // initiation.
            send.completion = g.add_calc(r, 0.0);
            chain(send.completion);
          }
          channels[{r, op.peer, op.tag}].sends.push_back(send);
          break;
        }
        case MidOp::Kind::kIsend: {
          const VertexId v = g.add_send(r, op.peer, op.bytes, op.tag);
          chain(v);
          Channel& ch = channels[{r, op.peer, op.tag}];
          ch.sends.push_back({v, kInvalidVertex});
          add_request(op, {false, op.peer, op.bytes, op.tag, &ch,
                           ch.sends.size() - 1, false});
          break;
        }
        case MidOp::Kind::kRecv: {
          const VertexId v = g.add_recv(r, op.peer, op.bytes, op.tag);
          if (rdzv(op.bytes)) {
            // The issue edge subsumes the plain program-order dependency.
            g.add_issue_edge(prev, v, /*through_post=*/false);
            chain(v, /*add_local=*/false);
          } else {
            chain(v);
          }
          channels[{op.peer, r, op.tag}].recvs.push_back({v, kInvalidVertex});
          break;
        }
        case MidOp::Kind::kIrecv: {
          const VertexId post = g.add_post(r, op.peer);
          chain(post);
          // Reserve the match slot now: MPI matches receives in *posting*
          // order, not wait order.
          Channel& ch = channels[{op.peer, r, op.tag}];
          ch.recvs.push_back({kInvalidVertex, post});
          add_request(op, {true, op.peer, op.bytes, op.tag, &ch,
                           ch.recvs.size() - 1, false});
          break;
        }
        case MidOp::Kind::kWait: {
          const auto it = requests.find(op.request);
          if (it == requests.end() || it->second.waited) {
            throw SchedError(strformat("rank %d: wait on unknown or already "
                                       "completed request %lld", r,
                                       static_cast<long long>(op.request)));
          }
          RequestInfo& info = it->second;
          info.waited = true;
          if (info.is_recv) {
            Channel::Recv& slot = info.channel->recvs[info.slot];
            slot.vertex = g.add_recv(r, info.peer, info.bytes, info.tag);
            chain(slot.vertex);
            if (rdzv(info.bytes)) {
              g.add_issue_edge(slot.post, slot.vertex, /*through_post=*/true);
            }
          } else {
            const VertexId w = g.add_calc(r, 0.0);
            chain(w);
            if (rdzv(info.bytes)) info.channel->sends[info.slot].completion = w;
          }
          break;
        }
      }
    }
    // Closing sentinel.
    chain(g.add_calc(r, 0.0));
    for (const auto& [req, info] : requests) {
      if (!info.waited) {
        throw SchedError(strformat("rank %d: request %lld never waited on", r,
                                   static_cast<long long>(req)));
      }
    }
  }

  // Sort the channel keys once: edges are emitted, and errors raised, in
  // (src, dst, tag) order, so the graph and the first error reported do
  // not depend on the hash table's iteration order.
  std::vector<std::pair<MatchKey, const Channel*>> sorted;
  sorted.reserve(channels.size());
  for (const auto& [key, ch] : channels) sorted.emplace_back(key, &ch);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Match sends to receives (non-overtaking: k-th send from A to B with tag
  // t pairs with the k-th posted recv at B from A with tag t).
  for (const auto& [key, ch] : sorted) {
    if (ch->sends.empty()) continue;  // reported below
    const auto& [src, dst, tag] = key;
    if (ch->recvs.size() != ch->sends.size()) {
      throw SchedError(strformat("unmatched messages %d->%d tag %d: %zu "
                                 "send(s) vs %zu recv(s)",
                                 src, dst, tag, ch->sends.size(),
                                 ch->recvs.size()));
    }
    for (std::size_t k = 0; k < ch->sends.size(); ++k) {
      const Channel::Send& s = ch->sends[k];
      const Channel::Recv& rv = ch->recvs[k];
      if (rv.vertex == kInvalidVertex) {
        throw SchedError(strformat("recv %d<-%d tag %d slot %zu never "
                                   "completed by a wait", dst, src, tag, k));
      }
      const bool is_rdzv = rdzv(g.vertex(s.vertex).bytes);
      g.add_comm_edge(s.vertex, rv.vertex, is_rdzv);
      if (is_rdzv && s.completion != kInvalidVertex) {
        if (rv.post == kInvalidVertex) {
          // Blocking receiver: its recv vertex completes exactly at t_r'.
          g.add_send_completion_edge(rv.vertex, s.completion);
        } else {
          // Nonblocking receiver: the handshake does not wait for the
          // receiver's MPI_Wait, only for the posting.
          g.add_handshake_completion_edges(s.vertex, rv.post, s.completion);
        }
      }
    }
  }
  // Receives with no matching send at all.
  for (const auto& [key, ch] : sorted) {
    if (ch->sends.empty()) {
      const auto& [src, dst, tag] = key;
      throw SchedError(strformat("%zu recv(s) %d<-%d tag %d have no sender",
                                 ch->recvs.size(), dst, src, tag));
    }
  }

  g.finalize();
  return g;
}

graph::Graph build_graph(const trace::Trace& t, const Options& opts) {
  return build_graph_from_streams(expand_trace(t, opts), opts);
}

std::string to_string(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRecursiveDoubling: return "recursive-doubling";
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kReduceBcast: return "reduce+bcast";
  }
  return "?";
}

}  // namespace llamp::schedgen
