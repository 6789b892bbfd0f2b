#include "lp/param_space.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::lp {

namespace {

double payload_cost(std::uint64_t bytes, double G) {
  return bytes > 1 ? static_cast<double>(bytes - 1) * G : 0.0;
}

}  // namespace

void LatencyParamSpace::edge_cost_into(const graph::Graph&,
                                       const graph::Edge& e,
                                       Affine& a) const {
  a.constant = static_cast<double>(e.o_mult) * p_.o + payload_cost(e.bytes, p_.G);
  a.terms.clear();
  if (e.l_mult != 0) {
    a.terms.push_back({0, static_cast<double>(e.l_mult)});
  }
}

void LatencyBandwidthParamSpace::edge_cost_into(const graph::Graph&,
                                                const graph::Edge& e,
                                                Affine& a) const {
  a.constant = static_cast<double>(e.o_mult) * p_.o;
  a.terms.clear();
  if (e.l_mult != 0) {
    a.terms.push_back({0, static_cast<double>(e.l_mult)});
  }
  if (e.bytes > 1) {
    a.terms.push_back({1, static_cast<double>(e.bytes - 1)});
  }
}

PairwiseLatencyParamSpace::PairwiseLatencyParamSpace(loggops::Params p,
                                                     int nranks,
                                                     bool include_gap_params)
    : p_(p), nranks_(nranks), gap_params_(include_gap_params) {
  p_.validate();
  if (nranks < 2) throw LpError("pairwise space needs >= 2 ranks");
  const std::size_t pairs =
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks - 1) / 2;
  base_.assign(pairs, p.L);
  gap_.assign(pairs, p.G);
}

PairwiseLatencyParamSpace::PairwiseLatencyParamSpace(
    loggops::Params p, int nranks, std::vector<double> latency_matrix,
    std::vector<double> gap_matrix, bool include_gap_params)
    : PairwiseLatencyParamSpace(p, nranks, include_gap_params) {
  const auto need = static_cast<std::size_t>(nranks) *
                    static_cast<std::size_t>(nranks);
  if (latency_matrix.size() != need || gap_matrix.size() != need) {
    throw LpError("pairwise space: matrix size mismatch");
  }
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      const auto ij = static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(nranks) +
                      static_cast<std::size_t>(j);
      const auto ji = static_cast<std::size_t>(j) *
                          static_cast<std::size_t>(nranks) +
                      static_cast<std::size_t>(i);
      if (latency_matrix[ij] != latency_matrix[ji] ||
          gap_matrix[ij] != gap_matrix[ji]) {
        throw LpError(strformat("pairwise space: matrices must be symmetric "
                                "(pair %d,%d)", i, j));
      }
      const auto k = static_cast<std::size_t>(pair_index(i, j));
      base_[k] = latency_matrix[ij];
      gap_[k] = gap_matrix[ij];
    }
  }
}

PerturbedParamSpace::PerturbedParamSpace(
    std::shared_ptr<const ParamSpace> base, std::vector<double> edge_factor)
    : base_(std::move(base)), edge_factor_(std::move(edge_factor)) {
  if (!base_) throw LpError("perturbed space: null base space");
  for (const double f : edge_factor_) {
    if (!std::isfinite(f) || f < 0.0) {
      throw LpError(strformat(
          "perturbed space: edge factors must be finite and >= 0 (got %g)",
          f));
    }
  }
}

void PerturbedParamSpace::edge_cost_into(const graph::Graph& g,
                                         const graph::Edge& e,
                                         Affine& a) const {
  if (edge_factor_.size() != g.num_edges()) {
    throw LpError(strformat(
        "perturbed space: %zu edge factors for a graph with %zu edges",
        edge_factor_.size(), g.num_edges()));
  }
  // Edges live contiguously in g.edges(); the reference's position is the
  // edge id the factors are indexed by.
  const auto edges = g.edges();
  const std::size_t id = static_cast<std::size_t>(&e - edges.data());
  if (id >= edges.size()) {
    throw LpError("perturbed space: edge does not belong to this graph");
  }
  base_->edge_cost_into(g, e, a);
  const double f = edge_factor_[id];
  a.constant *= f;
  for (ParamTerm& t : a.terms) t.coeff *= f;
}

int PairwiseLatencyParamSpace::pair_index(int i, int j) const {
  if (i == j || i < 0 || j < 0 || i >= nranks_ || j >= nranks_) {
    throw LpError(strformat("pairwise space: bad pair (%d,%d)", i, j));
  }
  if (i > j) std::swap(i, j);
  // Index into the strictly-upper-triangular enumeration.
  return i * nranks_ - i * (i + 1) / 2 + (j - i - 1);
}

int PairwiseLatencyParamSpace::gap_param_index(int i, int j) const {
  if (!gap_params_) {
    throw LpError("pairwise space was built without gap parameters");
  }
  return num_pairs() + pair_index(i, j);
}

int PairwiseLatencyParamSpace::num_params() const {
  return gap_params_ ? 2 * num_pairs() : num_pairs();
}

double PairwiseLatencyParamSpace::base_value(int k) const {
  const int pairs = num_pairs();
  if (k < pairs) return base_[static_cast<std::size_t>(k)];
  return gap_[static_cast<std::size_t>(k - pairs)];
}

std::string PairwiseLatencyParamSpace::param_name(int k) const {
  const int pairs = num_pairs();
  const bool is_gap = k >= pairs;
  if (is_gap) k -= pairs;
  // Invert the triangular index for readable names.
  for (int i = 0; i < nranks_; ++i) {
    const int row_start = i * nranks_ - i * (i + 1) / 2;
    const int row_len = nranks_ - i - 1;
    if (k < row_start + row_len) {
      return strformat("%s_%d_%d", is_gap ? "G" : "l", i,
                       i + 1 + (k - row_start));
    }
  }
  throw LpError("pairwise space: bad parameter index");
}

void PairwiseLatencyParamSpace::edge_cost_into(const graph::Graph& g,
                                               const graph::Edge& e,
                                               Affine& a) const {
  a.constant = static_cast<double>(e.o_mult) * p_.o;
  a.terms.clear();
  if (e.l_mult != 0 || e.bytes > 1) {
    const auto [src, dst] = g.edge_wire_pair(e);
    if (src == dst) {
      // Local edges carry no wire terms by construction, but guard anyway.
      a.constant += payload_cost(e.bytes, p_.G);
      return;
    }
    const auto k = static_cast<std::size_t>(pair_index(src, dst));
    if (e.l_mult != 0) {
      a.terms.push_back({static_cast<int>(k), static_cast<double>(e.l_mult)});
    }
    if (e.bytes > 1) {
      if (gap_params_) {
        a.terms.push_back({num_pairs() + static_cast<int>(k),
                           static_cast<double>(e.bytes - 1)});
      } else {
        a.constant += payload_cost(e.bytes, gap_[k]);
      }
    }
  }
}

LinkClassParamSpace::LinkClassParamSpace(loggops::Params p,
                                         std::vector<std::string> class_names,
                                         std::vector<double> class_base_values,
                                         std::vector<Route> routes_by_pair,
                                         int nranks)
    : p_(p),
      names_(std::move(class_names)),
      base_(std::move(class_base_values)),
      routes_(std::move(routes_by_pair)),
      nranks_(nranks) {
  p_.validate();
  if (names_.size() != base_.size()) {
    throw LpError("link-class space: names/base size mismatch");
  }
  if (routes_.size() != static_cast<std::size_t>(nranks) *
                            static_cast<std::size_t>(nranks)) {
    throw LpError("link-class space: route table must be nranks^2");
  }
  for (const Route& r : routes_) {
    if (r.counts.size() != names_.size()) {
      throw LpError("link-class space: route count arity mismatch");
    }
  }
}

const LinkClassParamSpace::Route& LinkClassParamSpace::route(int src,
                                                             int dst) const {
  if (src < 0 || dst < 0 || src >= nranks_ || dst >= nranks_) {
    throw LpError("link-class space: rank out of range");
  }
  return routes_[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(nranks_) +
                 static_cast<std::size_t>(dst)];
}

void LinkClassParamSpace::edge_cost_into(const graph::Graph& g,
                                         const graph::Edge& e,
                                         Affine& a) const {
  a.constant = static_cast<double>(e.o_mult) * p_.o + payload_cost(e.bytes, p_.G);
  a.terms.clear();
  if (e.l_mult != 0) {
    const auto [src, dst] = g.edge_wire_pair(e);
    const Route& r = route(src, dst);
    const double lm = static_cast<double>(e.l_mult);
    a.constant += lm * r.constant;
    for (std::size_t c = 0; c < r.counts.size(); ++c) {
      if (r.counts[c] != 0.0) {
        a.terms.push_back({static_cast<int>(c), lm * r.counts[c]});
      }
    }
  }
}

}  // namespace llamp::lp
