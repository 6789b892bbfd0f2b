#include "api/request.hpp"

#include <iterator>

#include "util/error.hpp"
#include "util/json.hpp"

namespace llamp::api {
namespace {

// ---------------------------------------------------------------------------
// The field tables.  Row order is the canonical JSON field order; nested
// blocks are objects in JSON and flat on the CLI.
// ---------------------------------------------------------------------------

using App = AppSpec;
using Grid = GridSpec;
using Fabric = core::TopologyOptions;
using Mc = McRequest;
using Camp = CampaignRequest;
using Topo = TopoRequest;
using Place = PlaceRequest;

constexpr Field kAppFields[] = {
    field<&App::app>("name", "app", "proxy application (`llamp apps`)"),
    field<&App::ranks>("ranks", "ranks",
                       "requested ranks, clamped down to a supported count"),
    field<&App::scale>("scale", "scale", "iteration-count multiplier"),
    field<&App::net>("net", "net", "LogGPS preset: cscs or daint"),
    field<&App::L>("L_ns", "L", "latency override [ns]"),
    field<&App::o>("o_ns", "o",
                   "overhead override [ns] (default: Table II per app)"),
    field<&App::G>("G_ns_per_byte", "G", "gap per byte override [ns/B]"),
    field<&App::S>("S_bytes", "S", "rendezvous threshold [bytes], >= 1"),
};

constexpr Field kGridFields[] = {
    field<&Grid::dl_max_us>("dl_max_us", "dl-max-us",
                            "sweep ceiling ΔL_max [us], > 0"),
    field<&Grid::points>("points", "points", "grid points, >= 2"),
};

constexpr const char* kThreads = "parallelism, <= 0 = all cores";
constexpr const char* kLWire = "per-wire base latency [ns]";
constexpr const char* kDSwitch = "per-switch latency [ns]";
constexpr const char* kFtRadix = "Fat Tree switch radix (8: 128 nodes)";

constexpr Field kFabricFields[] = {
    field<&Fabric::l_wire>("l_wire_ns", "l-wire", kLWire),
    field<&Fabric::d_switch>("d_switch_ns", "d-switch", kDSwitch),
    field<&Fabric::ft_radix>("ft_radix", "ft-radix", kFtRadix),
    field<&Fabric::df_groups>("df_groups", "df-groups", "Dragonfly groups"),
    field<&Fabric::df_routers>("df_routers", "df-routers", "routers/group"),
    field<&Fabric::df_hosts>("df_hosts", "df-hosts", "hosts/router"),
};

/// analyze and sweep share one shape; only the op tag differs.
template <class R>
constexpr Field kSweepFields[] = {
    block<&R::app>("app", kAppFields),
    block<&R::grid>("grid", kGridFields),
    field<&R::threads>("threads", "threads", kThreads),
};

constexpr Field kMcFields[] = {
    block<&Mc::app>("app", kAppFields),
    block<&Mc::grid>("grid", kGridFields),
    field<&Mc::samples>("samples", "samples", "Monte Carlo samples, >= 1"),
    field<&Mc::seed>("seed", "seed", "RNG seed; same seed, same bytes"),
    field<&Mc::dist_L>("dist_L", "dist-L",
                       "L distribution, overriding --sigma-L: base, "
                       "const:V, normal:M,SD, relnormal:S, uniform:LO,HI",
                       kOptional),
    field<&Mc::dist_o>("dist_o", "dist-o", "o distribution", kOptional),
    field<&Mc::dist_G>("dist_G", "dist-G", "G distribution", kOptional),
    field<&Mc::sigma_L>("sigma_L", "sigma-L", "relative normal jitter of L"),
    field<&Mc::sigma_o>("sigma_o", "sigma-o", "relative normal jitter of o"),
    field<&Mc::sigma_G>("sigma_G", "sigma-G", "relative normal jitter of G"),
    field<&Mc::edge_sigma>("edge_sigma", "edge-sigma",
                           "per-edge cost factor 1 + bias + |N(0, sigma)|"),
    field<&Mc::edge_bias>("edge_bias", "edge-bias", "per-edge cost bias"),
    field<&Mc::bands>("bands", "bands", "tolerance band percents"),
    field<&Mc::threads>("threads", "threads", kThreads),
};

constexpr Field kCampaignFields[] = {
    field<&Camp::apps>("apps", "apps", "proxy applications"),
    field<&Camp::ranks>("ranks", "ranks", "rank counts, clamped per app"),
    field<&Camp::scales>("scales", "scales", "iteration-count multipliers"),
    field<&Camp::topologies>("topologies", "topos",
                             "none, fat-tree, dragonfly (ΔL per wire)"),
    field<&Camp::nets>("nets", "nets", "LogGPS presets: cscs, daint"),
    field<&Camp::L_list>("L_list", "L-list", "L override axis [ns]",
                         kOptional | kSpelled),
    field<&Camp::o_list>("o_list", "o-list", "o override axis [ns]",
                         kOptional | kSpelled),
    field<&Camp::G_list>("G_list", "G-list", "G override axis [ns/B]",
                         kOptional | kSpelled),
    field<&Camp::S>("S_bytes", "S", "rendezvous threshold [bytes], >= 1"),
    block<&Camp::grid>("grid", kGridFields),
    block<&Camp::topo>("topo", kFabricFields),
    field<&Camp::mc_samples>("mc_samples", "mc-samples",
                             "Monte Carlo samples per scenario (0: off)"),
    field<&Camp::seed>("seed", "seed", "RNG seed of the mc axis and probe"),
    field<&Camp::mc_sigma_L>("mc_sigma_L", "mc-sigma-L", "mc jitter of L"),
    field<&Camp::mc_sigma_o>("mc_sigma_o", "mc-sigma-o", "mc jitter of o"),
    field<&Camp::mc_sigma_G>("mc_sigma_G", "mc-sigma-G", "mc jitter of G"),
    field<&Camp::mc_edge_sigma>("mc_edge_sigma", "mc-edge-sigma",
                                "mc per-edge cost noise"),
    field<&Camp::mc_edge_bias>("mc_edge_bias", "mc-edge-bias",
                               "mc per-edge cost bias"),
    field<&Camp::probe>("probe", "probe",
                        "emulator: add the seeded emulator's measurement",
                        kOptional),
    field<&Camp::probe_runs>("probe_runs", "probe-runs",
                             "probe runs averaged per point", 0, "probe"),
    field<&Camp::noise_sigma>("noise_sigma", "noise-sigma",
                              "probe run-to-run noise", 0, "probe"),
    field<&Camp::threads>("threads", "threads", kThreads),
};

constexpr Field kTopoFields[] = {
    block<&Topo::app>("app", kAppFields),
    field<&Topo::l_wire>("l_wire_ns", "l-wire", kLWire),
    field<&Topo::d_switch>("d_switch_ns", "d-switch", kDSwitch),
    field<&Topo::ft_radix>("ft_radix", "ft-radix", kFtRadix),
    field<&Topo::df_groups>("df_groups", "df-groups", "Dragonfly groups"),
    field<&Topo::df_routers>("df_routers", "df-routers", "routers/group"),
    field<&Topo::df_hosts>("df_hosts", "df-hosts", "hosts/router"),
};

constexpr Field kPlaceFields[] = {
    block<&Place::app>("app", kAppFields),
    field<&Place::l_wire>("l_wire_ns", "l-wire", kLWire),
    field<&Place::d_switch>("d_switch_ns", "d-switch", kDSwitch),
    field<&Place::ft_radix>("ft_radix", "ft-radix", kFtRadix),
    field<&Place::max_rounds>("max_rounds", "max-rounds",
                              "Algorithm-3 round cap"),
};

template <class R>
Request make() {
  return R{};
}

/// One entry per Request alternative, in variant order.
struct Op {
  const char* name;
  std::span<const Field> fields;
  Request (*make)();
};

constexpr Op kOps[] = {
    {"analyze", kSweepFields<AnalyzeRequest>, make<AnalyzeRequest>},
    {"sweep", kSweepFields<SweepRequest>, make<SweepRequest>},
    {"campaign", kCampaignFields, make<CampaignRequest>},
    {"mc", kMcFields, make<McRequest>},
    {"topo", kTopoFields, make<TopoRequest>},
    {"place", kPlaceFields, make<PlaceRequest>},
};
static_assert(std::size(kOps) == std::variant_size_v<Request>);

const Op* find_op(std::string_view name) {
  for (const Op& op : kOps) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const Op& op_or_throw(std::string_view name) {
  if (const Op* op = find_op(name)) return *op;
  throw UsageError("json: unknown op \"" + std::string(name) +
                   "\" (want analyze, sweep, campaign, mc, topo, or place)");
}

void* owner(Request& req) {
  return std::visit([](auto& r) -> void* { return &r; }, req);
}

Request parse_as(const Op& op, const JsonValue& doc) {
  Request req = op.make();
  read_json(op.fields, owner(req), doc, "request", "op");
  return req;
}

}  // namespace

const char* op_name(const Request& req) { return kOps[req.index()].name; }

std::string to_json(const Request& req) {
  std::string out = "{\"op\": \"";
  out += op_name(req);
  out += "\", ";
  const void* r = std::visit([](const auto& x) -> const void* { return &x; },
                             req);
  write_json(out, kOps[req.index()].fields, r);
  out += '}';
  return out;
}

Request parse_request(std::string_view json) {
  const JsonValue doc = JsonValue::parse(json);
  (void)doc.members("json: request");  // raises if not an object
  const JsonValue* op = doc.find("op");
  if (!op) throw UsageError("json: request is missing \"op\"");
  return parse_as(op_or_throw(op->as_string("json: request.op")), doc);
}

Request parse_request_for_op(std::string_view op, std::string_view json) {
  const JsonValue doc = JsonValue::parse(json);
  (void)doc.members("json: request");
  if (const JsonValue* tag = doc.find("op")) {
    const std::string spelled = tag->as_string("json: request.op");
    if (spelled != op) {
      throw UsageError("json: request \"op\" is \"" + spelled +
                       "\" but this endpoint is \"" + std::string(op) + "\"");
    }
  }
  return parse_as(op_or_throw(op), doc);
}

std::span<const Field> request_fields(std::string_view op) {
  const Op* found = find_op(op);
  return found ? found->fields : std::span<const Field>{};
}

Request request_from_flags(std::string_view op,
                           const std::vector<std::string>& args) {
  const Op& found = op_or_throw(op);
  Request req = found.make();
  read_flags(found.fields, owner(req), args);
  return req;
}

std::string request_flags_help(std::string_view op) {
  const Op& found = op_or_throw(op);
  Request defaults = found.make();
  return flags_help(found.fields, owner(defaults));
}

}  // namespace llamp::api
