#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/batch.hpp"
#include "api/engine.hpp"
#include "api/request.hpp"
#include "core/report.hpp"
#include "tools/cli_driver.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace llamp {
namespace {

// ---------------------------------------------------------------------------
// JSON round trip: serialize → parse → serialize must be byte-identical for
// every request type, and the parsed request must execute identically.
// ---------------------------------------------------------------------------

void expect_round_trip(const api::Request& req) {
  const std::string json = api::to_json(req);
  const api::Request parsed = api::parse_request(json);
  EXPECT_EQ(api::to_json(parsed), json) << json;
  EXPECT_EQ(req.index(), parsed.index());
  EXPECT_STREQ(api::op_name(req), api::op_name(parsed));
}

api::AppSpec fancy_app() {
  api::AppSpec app;
  app.app = "hpcg";
  app.ranks = 27;
  app.scale = 0.05;
  app.net = "daint";
  app.L = 2500.0;
  app.o = 4321.5;
  app.G = 0.021;
  app.S = 1024;
  return app;
}

api::AnalyzeRequest fancy_analyze() {
  api::AnalyzeRequest req;
  req.app = fancy_app();
  req.grid = {42.5, 7};
  req.threads = 3;
  return req;
}

api::SweepRequest fancy_sweep() {
  api::SweepRequest req;
  req.app = fancy_app();
  req.grid = {30.0, 4};
  return req;
}

api::McRequest fancy_mc() {
  api::McRequest req;
  req.app = fancy_app();
  req.grid = {20.0, 3};
  req.samples = 64;
  req.seed = 7;
  req.dist_L = "uniform:2500,3500";
  req.sigma_o = 0.02;
  req.edge_sigma = 0.003;
  req.edge_bias = 0.001;
  req.bands = {1.0, 2.5};
  req.threads = 2;
  return req;
}

api::CampaignRequest fancy_campaign() {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.ranks = {8, 27};
  req.scales = {0.02, 0.05};
  req.topologies = {"none", "fat-tree"};
  req.nets = {"cscs", "daint"};
  req.L_list = {"5000", "1e4"};
  req.o_list = {"4000"};
  req.S = 2048;
  req.grid = {20.0, 3};
  req.topo.ft_radix = 16;
  req.mc_samples = 8;
  req.seed = 3;
  req.mc_sigma_L = 0.05;
  req.probe = "emulator";
  req.probe_runs = 2;
  req.noise_sigma = 0.004;
  req.threads = 4;
  return req;
}

api::TopoRequest fancy_topo() {
  api::TopoRequest req;
  req.app = fancy_app();
  req.l_wire = 300.0;
  req.d_switch = 100.0;
  req.ft_radix = 16;
  req.df_groups = 4;
  return req;
}

api::PlaceRequest fancy_place() {
  api::PlaceRequest req;
  req.app = fancy_app();
  req.max_rounds = 16;
  return req;
}

TEST(ApiRequestJson, AnalyzeRoundTrip) {
  expect_round_trip(api::AnalyzeRequest{});  // all defaults
  expect_round_trip(fancy_analyze());
}

TEST(ApiRequestJson, SweepRoundTrip) {
  expect_round_trip(api::SweepRequest{});
  expect_round_trip(fancy_sweep());
}

TEST(ApiRequestJson, McRoundTrip) {
  expect_round_trip(api::McRequest{});
  expect_round_trip(fancy_mc());
}

TEST(ApiRequestJson, CampaignRoundTrip) {
  expect_round_trip(api::CampaignRequest{});
  expect_round_trip(fancy_campaign());
}

TEST(ApiRequestJson, TopoRoundTrip) {
  expect_round_trip(api::TopoRequest{});
  expect_round_trip(fancy_topo());
}

TEST(ApiRequestJson, PlaceRoundTrip) {
  expect_round_trip(api::PlaceRequest{});
  expect_round_trip(fancy_place());
}

// The canonical form is a wire format (batch lines, serve bodies), so its
// bytes are pinned, not only its idempotence.
TEST(ApiRequestJson, CanonicalBytesArePinned) {
  const std::string app_defaults =
      "\"app\": {\"name\": \"lulesh\", \"ranks\": 8, \"scale\": 0.25, "
      "\"net\": \"cscs\"}";
  const std::string fancy =
      "\"app\": {\"name\": \"hpcg\", \"ranks\": 27, \"scale\": 0.05, "
      "\"net\": \"daint\", \"L_ns\": 2500, \"o_ns\": 4321.5, "
      "\"G_ns_per_byte\": 0.021, \"S_bytes\": 1024}";
  const std::string grid_defaults =
      "\"grid\": {\"dl_max_us\": 100, \"points\": 11}";
  const std::vector<std::pair<api::Request, std::string>> cases = {
      {api::AnalyzeRequest{},
       "{\"op\": \"analyze\", " + app_defaults + ", " + grid_defaults +
           ", \"threads\": 0}"},
      {api::SweepRequest{},
       "{\"op\": \"sweep\", " + app_defaults + ", " + grid_defaults +
           ", \"threads\": 0}"},
      {api::CampaignRequest{},
       "{\"op\": \"campaign\", \"apps\": [\"lulesh\"], \"ranks\": [8], "
       "\"scales\": [0.25], \"topologies\": [\"none\"], \"nets\": "
       "[\"cscs\"], " +
           grid_defaults +
           ", \"topo\": {\"l_wire_ns\": 274, \"d_switch_ns\": 108, "
           "\"ft_radix\": 8, \"df_groups\": 8, \"df_routers\": 4, "
           "\"df_hosts\": 8}, \"mc_samples\": 0, \"seed\": 42, "
           "\"mc_sigma_L\": 0, \"mc_sigma_o\": 0, \"mc_sigma_G\": 0, "
           "\"mc_edge_sigma\": 0, \"mc_edge_bias\": 0, \"threads\": 0}"},
      {api::McRequest{},
       "{\"op\": \"mc\", " + app_defaults + ", " + grid_defaults +
           ", \"samples\": 256, \"seed\": 42, \"sigma_L\": 0, "
           "\"sigma_o\": 0, \"sigma_G\": 0, \"edge_sigma\": 0, "
           "\"edge_bias\": 0, \"bands\": [1, 2, 5], \"threads\": 0}"},
      {api::TopoRequest{},
       "{\"op\": \"topo\", " + app_defaults +
           ", \"l_wire_ns\": 274, \"d_switch_ns\": 108, \"ft_radix\": 8, "
           "\"df_groups\": 8, \"df_routers\": 4, \"df_hosts\": 8}"},
      {api::PlaceRequest{},
       "{\"op\": \"place\", " + app_defaults +
           ", \"l_wire_ns\": 274, \"d_switch_ns\": 108, \"ft_radix\": 8, "
           "\"max_rounds\": 64}"},
      {fancy_analyze(),
       "{\"op\": \"analyze\", " + fancy +
           ", \"grid\": {\"dl_max_us\": 42.5, \"points\": 7}, "
           "\"threads\": 3}"},
      {fancy_sweep(),
       "{\"op\": \"sweep\", " + fancy +
           ", \"grid\": {\"dl_max_us\": 30, \"points\": 4}, "
           "\"threads\": 0}"},
      {fancy_mc(),
       "{\"op\": \"mc\", " + fancy +
           ", \"grid\": {\"dl_max_us\": 20, \"points\": 3}, "
           "\"samples\": 64, \"seed\": 7, \"dist_L\": "
           "\"uniform:2500,3500\", \"sigma_L\": 0, \"sigma_o\": 0.02, "
           "\"sigma_G\": 0, \"edge_sigma\": 0.003, \"edge_bias\": 0.001, "
           "\"bands\": [1, 2.5], \"threads\": 2}"},
      {fancy_campaign(),
       "{\"op\": \"campaign\", \"apps\": [\"lulesh\", \"hpcg\"], "
       "\"ranks\": [8, 27], \"scales\": [0.02, 0.05], \"topologies\": "
       "[\"none\", \"fat-tree\"], \"nets\": [\"cscs\", \"daint\"], "
       "\"L_list\": [\"5000\", \"1e4\"], \"o_list\": [\"4000\"], "
       "\"S_bytes\": 2048, \"grid\": {\"dl_max_us\": 20, \"points\": 3}, "
       "\"topo\": {\"l_wire_ns\": 274, \"d_switch_ns\": 108, "
       "\"ft_radix\": 16, \"df_groups\": 8, \"df_routers\": 4, "
       "\"df_hosts\": 8}, \"mc_samples\": 8, \"seed\": 3, "
       "\"mc_sigma_L\": 0.05, \"mc_sigma_o\": 0, \"mc_sigma_G\": 0, "
       "\"mc_edge_sigma\": 0, \"mc_edge_bias\": 0, \"probe\": "
       "\"emulator\", \"probe_runs\": 2, \"noise_sigma\": 0.004, "
       "\"threads\": 4}"},
      {fancy_topo(),
       "{\"op\": \"topo\", " + fancy +
           ", \"l_wire_ns\": 300, \"d_switch_ns\": 100, \"ft_radix\": 16, "
           "\"df_groups\": 4, \"df_routers\": 4, \"df_hosts\": 8}"},
      {fancy_place(),
       "{\"op\": \"place\", " + fancy +
           ", \"l_wire_ns\": 274, \"d_switch_ns\": 108, \"ft_radix\": 8, "
           "\"max_rounds\": 16}"},
  };
  for (const auto& [req, json] : cases) {
    EXPECT_EQ(api::to_json(req), json);
  }
}

TEST(ApiRequestJson, ExampleBatchFileParses) {
  std::ifstream in(LLAMP_EXAMPLES_DIR "/batch_requests.jsonl");
  ASSERT_TRUE(in);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_NO_THROW((void)api::parse_request(line)) << line;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ApiRequestJson, ParseAppliesDefaults) {
  const api::Request req = api::parse_request("{\"op\": \"analyze\"}");
  const auto& r = std::get<api::AnalyzeRequest>(req);
  EXPECT_EQ(r.app.app, "lulesh");
  EXPECT_EQ(r.app.ranks, 8);
  EXPECT_DOUBLE_EQ(r.app.scale, 0.25);
  EXPECT_FALSE(r.app.L.has_value());
  EXPECT_DOUBLE_EQ(r.grid.dl_max_us, 100.0);
  EXPECT_EQ(r.grid.points, 11);
  EXPECT_EQ(r.threads, 0);
}

// The JSON surface takes the CLI's typo stance: unknown fields, wrong
// types, malformed documents, orphaned probe knobs, and present but empty
// values of fields whose empty value means "absent" are usage errors.
TEST(ApiRequestJson, RejectsMalformedRequests) {
  const std::vector<std::string> bad = {
      "",
      "not json",
      "[]",
      "42",
      "{\"op\": \"frobnicate\"}",
      "{}",
      "{\"op\": \"analyze\", \"pionts\": 3}",
      "{\"op\": \"analyze\", \"app\": {\"nmae\": \"lulesh\"}}",
      "{\"op\": \"analyze\", \"grid\": {\"points\": \"three\"}}",
      "{\"op\": \"analyze\", \"grid\": {\"points\": 2.5}}",
      "{\"op\": \"mc\", \"seed\": -1}",
      "{\"op\": \"mc\", \"dist_L\": \"\"}",
      "{\"op\": \"mc\", \"dist_o\": \"\"}",
      "{\"op\": \"mc\", \"dist_G\": \"\"}",
      "{\"op\": \"campaign\", \"probe\": \"\"}",
      "{\"op\": \"campaign\", \"L_list\": []}",
      "{\"op\": \"campaign\", \"o_list\": []}",
      "{\"op\": \"campaign\", \"G_list\": []}",
      "{\"op\": \"analyze\", \"app\": {\"ranks\": 1e300}}",
      "{\"op\": \"campaign\", \"probe_runs\": 2}",
      "{\"op\": \"analyze\"} trailing",
      "{\"op\": \"analyze\", \"op\": \"sweep\"}",
  };
  for (const std::string& json : bad) {
    EXPECT_THROW((void)api::parse_request(json), UsageError) << json;
  }
}

TEST(ApiRequestJson, SeedsAboveDoublePrecisionSurviveExactly) {
  // Seeds are u64; going through a double would silently round anything
  // above 2^53 and break the reproducibility contract.
  const auto parsed = api::parse_request(
      "{\"op\": \"mc\", \"seed\": 9007199254740993}");
  EXPECT_EQ(std::get<api::McRequest>(parsed).seed, 9007199254740993ull);

  const auto max = api::parse_request(
      "{\"op\": \"mc\", \"seed\": 18446744073709551615}");
  EXPECT_EQ(std::get<api::McRequest>(parsed).seed, 9007199254740993ull);
  EXPECT_EQ(std::get<api::McRequest>(max).seed, 18446744073709551615ull);

  api::McRequest req;
  req.seed = 18446744073709551615ull;
  expect_round_trip(req);

  // Scientific spellings stay usable while exact; overflow is an error.
  const auto sci = api::parse_request("{\"op\": \"mc\", \"seed\": 5e3}");
  EXPECT_EQ(std::get<api::McRequest>(sci).seed, 5000ull);
  EXPECT_THROW(
      (void)api::parse_request(
          "{\"op\": \"mc\", \"seed\": 18446744073709551616}"),
      UsageError);
  EXPECT_THROW((void)api::parse_request("{\"op\": \"mc\", \"seed\": 1e300}"),
               UsageError);
}

TEST(ApiRequestJson, NumberSpellingSurvivesTheOverrideAxes) {
  // L_list entries name config variants, so "1e4" must not be rewritten
  // as "10000" by a (de)serialization pass.
  const api::Request req = api::parse_request(
      "{\"op\": \"campaign\", \"L_list\": [\"1e4\", 5000]}");
  const auto& r = std::get<api::CampaignRequest>(req);
  ASSERT_EQ(r.L_list.size(), 2u);
  EXPECT_EQ(r.L_list[0], "1e4");
  EXPECT_EQ(r.L_list[1], "5000");
}

// ---------------------------------------------------------------------------
// CLI ↔ Engine byte equivalence: the CLI is a thin adapter, so building
// the request by hand and rendering the engine's result must reproduce the
// subcommand's bytes exactly, for every subcommand and format.
// ---------------------------------------------------------------------------

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "llamp");
  std::ostringstream out, err;
  CliResult r;
  r.code = tools::run(static_cast<int>(args.size()), args.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

api::AppSpec small_app(const char* name) {
  api::AppSpec app;
  app.app = name;
  app.ranks = 8;
  app.scale = 0.02;
  return app;
}

template <typename Result>
std::string rendered(const Result& res, core::OutputFormat format) {
  std::ostringstream os;
  res.render(format, os);
  return os.str();
}

TEST(ApiCliEquivalence, Analyze) {
  api::AnalyzeRequest req;
  req.app = small_app("lulesh");
  req.grid = {50.0, 3};
  api::Engine engine;
  const auto res = engine.analyze(req);
  const std::vector<const char*> args = {"analyze", "--app=lulesh",
                                         "--ranks=8", "--scale=0.02",
                                         "--points=3", "--dl-max-us=50"};
  for (const auto& [flag, format] :
       std::vector<std::pair<const char*, core::OutputFormat>>{
           {"--format=table", core::OutputFormat::kTable},
           {"--format=csv", core::OutputFormat::kCsv},
           {"--format=json", core::OutputFormat::kJson}}) {
    auto cli_args = args;
    cli_args.push_back(flag);
    const auto cli = run_cli(cli_args);
    ASSERT_EQ(cli.code, 0) << cli.err;
    EXPECT_EQ(cli.out, rendered(res, format)) << flag;
  }
}

TEST(ApiCliEquivalence, Sweep) {
  api::SweepRequest req;
  req.app = small_app("hpcg");
  req.grid = {30.0, 4};
  api::Engine engine;
  const auto res = engine.sweep(req);
  const auto cli = run_cli({"sweep", "--app=hpcg", "--ranks=8",
                            "--scale=0.02", "--points=4", "--dl-max-us=30"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

TEST(ApiCliEquivalence, Campaign) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.topologies = {"none", "fat-tree"};
  req.grid = {20.0, 3};
  api::Engine engine;
  const auto res = engine.campaign(req);
  for (const char* fmt : {"--format=table", "--format=csv", "--format=json"}) {
    const auto cli =
        run_cli({"campaign", "--apps=lulesh,hpcg", "--scales=0.02",
                 "--topos=none,fat-tree", "--points=3", "--dl-max-us=20",
                 fmt});
    ASSERT_EQ(cli.code, 0) << cli.err;
    const auto format = core::parse_output_format(fmt + 9);
    EXPECT_EQ(cli.out, rendered(res, format)) << fmt;
  }
}

TEST(ApiCliEquivalence, Mc) {
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 8;
  req.seed = 7;
  req.sigma_L = 0.05;
  req.edge_sigma = 0.003;
  api::Engine engine;
  const auto res = engine.mc(req);
  const auto cli = run_cli({"mc", "--app=lulesh", "--ranks=8",
                            "--scale=0.02", "--points=3", "--dl-max-us=20",
                            "--samples=8", "--seed=7", "--sigma-L=0.05",
                            "--edge-sigma=0.003", "--format=csv"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kCsv));
}

TEST(ApiCliEquivalence, Topo) {
  api::TopoRequest req;
  req.app = small_app("icon");
  req.app.scale = 0.05;
  api::Engine engine;
  const auto res = engine.topo(req);
  const auto cli =
      run_cli({"topo", "--app=icon", "--ranks=8", "--scale=0.05"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

TEST(ApiCliEquivalence, Place) {
  api::PlaceRequest req;
  req.app = small_app("icon");
  req.app.scale = 0.05;
  api::Engine engine;
  const auto res = engine.place(req);
  const auto cli =
      run_cli({"place", "--app=icon", "--ranks=8", "--scale=0.05"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_EQ(cli.out, rendered(res, core::OutputFormat::kTable));
}

// ---------------------------------------------------------------------------
// One field, two spellings: every request field as an (op, CLI flag, JSON
// key) triple, written out literally.  The flag and the key must set the
// field the same way, the op's --help must list the flag, and the triples
// must be exactly the rows of the op's field table, so a dropped, renamed
// or added field fails here.
// ---------------------------------------------------------------------------

struct Spelling {
  const char* op;
  const char* flag;
  const char* key;  ///< JSON key path; '.' separates nested objects
};

constexpr Spelling kSpellings[] = {
    {"analyze", "app", "app.name"},          {"analyze", "ranks", "app.ranks"},
    {"analyze", "scale", "app.scale"},       {"analyze", "net", "app.net"},
    {"analyze", "L", "app.L_ns"},            {"analyze", "o", "app.o_ns"},
    {"analyze", "G", "app.G_ns_per_byte"},   {"analyze", "S", "app.S_bytes"},
    {"analyze", "dl-max-us", "grid.dl_max_us"},
    {"analyze", "points", "grid.points"},    {"analyze", "threads", "threads"},
    {"sweep", "app", "app.name"},            {"sweep", "ranks", "app.ranks"},
    {"sweep", "scale", "app.scale"},         {"sweep", "net", "app.net"},
    {"sweep", "L", "app.L_ns"},              {"sweep", "o", "app.o_ns"},
    {"sweep", "G", "app.G_ns_per_byte"},     {"sweep", "S", "app.S_bytes"},
    {"sweep", "dl-max-us", "grid.dl_max_us"},
    {"sweep", "points", "grid.points"},      {"sweep", "threads", "threads"},
    {"mc", "app", "app.name"},               {"mc", "ranks", "app.ranks"},
    {"mc", "scale", "app.scale"},            {"mc", "net", "app.net"},
    {"mc", "L", "app.L_ns"},                 {"mc", "o", "app.o_ns"},
    {"mc", "G", "app.G_ns_per_byte"},        {"mc", "S", "app.S_bytes"},
    {"mc", "dl-max-us", "grid.dl_max_us"},   {"mc", "points", "grid.points"},
    {"mc", "samples", "samples"},            {"mc", "seed", "seed"},
    {"mc", "dist-L", "dist_L"},              {"mc", "dist-o", "dist_o"},
    {"mc", "dist-G", "dist_G"},              {"mc", "sigma-L", "sigma_L"},
    {"mc", "sigma-o", "sigma_o"},            {"mc", "sigma-G", "sigma_G"},
    {"mc", "edge-sigma", "edge_sigma"},      {"mc", "edge-bias", "edge_bias"},
    {"mc", "bands", "bands"},                {"mc", "threads", "threads"},
    {"campaign", "apps", "apps"},            {"campaign", "ranks", "ranks"},
    {"campaign", "scales", "scales"},        {"campaign", "topos", "topologies"},
    {"campaign", "nets", "nets"},            {"campaign", "L-list", "L_list"},
    {"campaign", "o-list", "o_list"},        {"campaign", "G-list", "G_list"},
    {"campaign", "S", "S_bytes"},
    {"campaign", "dl-max-us", "grid.dl_max_us"},
    {"campaign", "points", "grid.points"},
    {"campaign", "l-wire", "topo.l_wire_ns"},
    {"campaign", "d-switch", "topo.d_switch_ns"},
    {"campaign", "ft-radix", "topo.ft_radix"},
    {"campaign", "df-groups", "topo.df_groups"},
    {"campaign", "df-routers", "topo.df_routers"},
    {"campaign", "df-hosts", "topo.df_hosts"},
    {"campaign", "mc-samples", "mc_samples"},
    {"campaign", "seed", "seed"},
    {"campaign", "mc-sigma-L", "mc_sigma_L"},
    {"campaign", "mc-sigma-o", "mc_sigma_o"},
    {"campaign", "mc-sigma-G", "mc_sigma_G"},
    {"campaign", "mc-edge-sigma", "mc_edge_sigma"},
    {"campaign", "mc-edge-bias", "mc_edge_bias"},
    {"campaign", "probe", "probe"},
    {"campaign", "probe-runs", "probe_runs"},
    {"campaign", "noise-sigma", "noise_sigma"},
    {"campaign", "threads", "threads"},
    {"topo", "app", "app.name"},             {"topo", "ranks", "app.ranks"},
    {"topo", "scale", "app.scale"},          {"topo", "net", "app.net"},
    {"topo", "L", "app.L_ns"},               {"topo", "o", "app.o_ns"},
    {"topo", "G", "app.G_ns_per_byte"},      {"topo", "S", "app.S_bytes"},
    {"topo", "l-wire", "l_wire_ns"},         {"topo", "d-switch", "d_switch_ns"},
    {"topo", "ft-radix", "ft_radix"},        {"topo", "df-groups", "df_groups"},
    {"topo", "df-routers", "df_routers"},    {"topo", "df-hosts", "df_hosts"},
    {"place", "app", "app.name"},            {"place", "ranks", "app.ranks"},
    {"place", "scale", "app.scale"},         {"place", "net", "app.net"},
    {"place", "L", "app.L_ns"},              {"place", "o", "app.o_ns"},
    {"place", "G", "app.G_ns_per_byte"},     {"place", "S", "app.S_bytes"},
    {"place", "l-wire", "l_wire_ns"},        {"place", "d-switch", "d_switch_ns"},
    {"place", "ft-radix", "ft_radix"},       {"place", "max-rounds", "max_rounds"},
};

/// (flag, key path) of every leaf row of a field table.
void leaf_rows(std::span<const api::Field> rows, const std::string& prefix,
               std::vector<std::pair<std::string, std::string>>& out) {
  for (const api::Field& f : rows) {
    if (f.kind == api::FieldKind::kBlock) {
      leaf_rows(f.block, prefix + f.key + ".", out);
    } else {
      out.emplace_back(f.flag, prefix + f.key);
    }
  }
}

/// A non-default value of `kind`, as flag text and as JSON text.
std::pair<std::string, std::string> sample_value(api::FieldKind kind) {
  switch (kind) {
    case api::FieldKind::kString: return {"x", "\"x\""};
    case api::FieldKind::kDouble:
    case api::FieldKind::kOptDouble: return {"0.5", "0.5"};
    case api::FieldKind::kInts: return {"3,4", "[3, 4]"};
    case api::FieldKind::kDoubles: return {"0.5,1.5", "[0.5, 1.5]"};
    case api::FieldKind::kStrings: return {"a,b", "[\"a\", \"b\"]"};
    default: return {"3", "3"};
  }
}

/// `{"op": op, <path>: value}` with `path` expanded into nested objects.
std::string json_with(const std::string& op, std::string path,
                      const std::string& value) {
  std::string out = "{\"op\": \"" + op + "\", ";
  std::string close = "}";
  for (auto dot = path.find('.'); dot != std::string::npos;
       dot = path.find('.')) {
    out += "\"" + path.substr(0, dot) + "\": {";
    close += "}";
    path.erase(0, dot + 1);
  }
  return out + "\"" + path + "\": " + value + close;
}

TEST(ApiFieldTable, FlagAndJsonKeySetEachFieldTheSameWay) {
  for (const char* op : {"analyze", "sweep", "campaign", "mc", "topo",
                         "place"}) {
    std::vector<std::pair<std::string, std::string>> declared;
    leaf_rows(api::request_fields(op), "", declared);
    std::vector<std::pair<std::string, std::string>> listed;
    for (const Spelling& s : kSpellings) {
      if (std::string_view(s.op) == op) listed.emplace_back(s.flag, s.key);
    }
    std::sort(declared.begin(), declared.end());
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(declared, listed) << op;
  }

  for (const Spelling& s : kSpellings) {
    const api::Field* f = api::find_flag(api::request_fields(s.op), s.flag);
    ASSERT_NE(f, nullptr) << s.op << " --" << s.flag;
    const auto [flag_text, json_text] = sample_value(f->kind);
    std::vector<std::string> args = {"--" + std::string(s.flag) + "=" +
                                     flag_text};
    std::string json = json_with(s.op, s.key, json_text);
    if (f->gate != nullptr) {  // probe knobs need the probe on both surfaces
      args.push_back("--probe=x");
      json.insert(json.size() - 1, ", \"probe\": \"x\"");
    }
    const std::string via_flag =
        api::to_json(api::request_from_flags(s.op, args));
    EXPECT_EQ(via_flag, api::to_json(api::parse_request(json)))
        << s.op << " --" << s.flag;
    EXPECT_NE(via_flag, api::to_json(api::request_from_flags(s.op, {})))
        << s.op << " --" << s.flag << " left the request at its defaults";

    const auto help = run_cli({s.op, "--help"});
    EXPECT_EQ(help.code, 0);
    EXPECT_NE(help.out.find("  --" + std::string(s.flag) + "="),
              std::string::npos)
        << s.op << " --help lacks --" << s.flag;
  }
}

// ---------------------------------------------------------------------------
// Engine session caching: a repeated request must re-lower nothing, and
// the cache must be shared across request types.
// ---------------------------------------------------------------------------

/// Threads in this process right now.
std::size_t task_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ApiEngine, ConstructionStartsNoThread) {
  // Parallel loops run on the process-wide executor, which starts with the
  // first loop that fans out: an engine owns no threads.  Callers fork
  // before their first parallel call, and short-lived engines (one per
  // cold campaign) must not pay a thread start each.
  const std::size_t before = task_count();
  {
    api::Engine engine;
    api::Engine capped(api::Engine::Options{.threads = 4});
    EXPECT_EQ(task_count(), before);
  }
  EXPECT_EQ(task_count(), before);
}

TEST(ApiEngineCache, RepeatedRequestHitsTheGraphCache) {
  api::Engine engine;
  api::AnalyzeRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  const auto first = engine.analyze(req);
  const auto after_first = engine.cache_stats();
  EXPECT_EQ(after_first.built, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  const auto second = engine.analyze(req);
  const auto after_second = engine.cache_stats();
  EXPECT_EQ(after_second.built, 1u) << "second request re-built the graph";
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(rendered(first, core::OutputFormat::kTable),
            rendered(second, core::OutputFormat::kTable));
}

TEST(ApiEngineCache, CacheIsSharedAcrossRequestTypes) {
  api::Engine engine;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("lulesh");
  analyze.grid = {20.0, 3};
  (void)engine.analyze(analyze);
  EXPECT_EQ(engine.cache_stats().built, 1u);

  // Same scenario through sweep and a campaign: no new graph.
  api::SweepRequest sweep;
  sweep.app = small_app("lulesh");
  sweep.grid = {20.0, 3};
  (void)engine.sweep(sweep);
  EXPECT_EQ(engine.cache_stats().built, 1u);

  api::CampaignRequest campaign;
  campaign.apps = {"lulesh", "hpcg"};
  campaign.scales = {0.02};
  campaign.grid = {20.0, 3};
  (void)engine.campaign(campaign);
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.built, 2u) << "only hpcg was new";
  EXPECT_GE(stats.hits, 2u);
}

TEST(ApiEngineCache, WarmCacheNeverChangesCampaignBytes) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.grid = {20.0, 3};

  api::Engine cold;
  const auto cold_res = cold.campaign(req);

  api::Engine warm;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("hpcg");
  analyze.grid = {20.0, 3};
  (void)warm.analyze(analyze);  // pre-populates hpcg's graph
  const auto warm_res = warm.campaign(req);

  for (const auto format :
       {core::OutputFormat::kTable, core::OutputFormat::kCsv,
        core::OutputFormat::kJson}) {
    EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
  }
}

// ---------------------------------------------------------------------------
// Solver warm-starting (PR 7): responses must be byte-identical whether the
// solver cache is cold, warm, or shared across threads — across repeated
// and nearby requests, every output format, and every request type — and
// repeats must re-lower nothing.
// ---------------------------------------------------------------------------

constexpr core::OutputFormat kAllFormats[] = {core::OutputFormat::kTable,
                                              core::OutputFormat::kCsv,
                                              core::OutputFormat::kJson};

TEST(ApiSolverCache, RepeatedAndNearbyRequestsMatchColdBytes) {
  std::vector<api::SweepRequest> sweeps;
  for (const double dl : {20.0, 20.0, 21.0, 20.5, 20.0}) {
    api::SweepRequest req;
    req.app = small_app("hpcg");
    req.grid = {dl, 3};
    sweeps.push_back(req);
  }
  api::AnalyzeRequest analyze;
  analyze.app = small_app("hpcg");
  analyze.grid = {20.0, 3};

  api::Engine warm;
  for (int round = 0; round < 2; ++round) {
    for (const auto& req : sweeps) {
      const auto warm_res = warm.sweep(req);
      api::Engine cold;
      const auto cold_res = cold.sweep(req);
      for (const auto format : kAllFormats) {
        EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
      }
      EXPECT_EQ(cold_res.to_json_line(), warm_res.to_json_line());
    }
    const auto warm_rep = warm.analyze(analyze);
    api::Engine cold;
    const auto cold_rep = cold.analyze(analyze);
    for (const auto format : kAllFormats) {
      EXPECT_EQ(rendered(cold_rep, format), rendered(warm_rep, format));
    }
    EXPECT_EQ(cold_rep.to_json_line(), warm_rep.to_json_line());
  }

  // One scenario, one latency lowering (analyze adds the bandwidth space);
  // every repeat and nearby grid reused them.
  const auto stats = warm.solver_cache_stats();
  EXPECT_EQ(stats.built, 2u) << "hits=" << stats.hits
                             << " anchor_solves=" << stats.anchor_solves
                             << " replays=" << stats.replays;
  EXPECT_GE(stats.hits, 10u);
  EXPECT_GT(stats.replays, 0u) << "repeats should replay cached anchors";
}

TEST(ApiSolverCache, McWarmPathMatchesColdBytes) {
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 8;
  req.seed = 7;
  req.sigma_L = 0.05;  // only L jittered: the shared-solver path engages

  api::Engine warm;
  api::SweepRequest pre;
  pre.app = small_app("lulesh");
  pre.grid = {20.0, 3};
  (void)warm.sweep(pre);  // pre-warms the very lowering mc should reuse
  const auto warm_res = warm.mc(req);
  api::Engine cold;
  const auto cold_res = cold.mc(req);
  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(warm_res, format));
  }
  EXPECT_EQ(cold_res.to_json_line(), warm_res.to_json_line());

  // With edge noise the shared path disengages (per-sample perturbed
  // spaces); bytes still cannot depend on the session's cache.
  req.edge_sigma = 0.003;
  const auto warm_noise = warm.mc(req);
  const auto cold_noise = cold.mc(req);
  EXPECT_EQ(cold_noise.to_json_line(), warm_noise.to_json_line());
}

TEST(ApiSolverCache, CampaignWarmVsColdBytesIncludingMcAxis) {
  api::CampaignRequest req;
  req.apps = {"lulesh", "hpcg"};
  req.scales = {0.02};
  req.grid = {20.0, 3};
  req.mc_samples = 4;
  req.mc_sigma_L = 0.05;

  api::Engine cold;
  const auto cold_res = cold.campaign(req);

  api::Engine warm;
  api::AnalyzeRequest analyze;
  analyze.app = small_app("hpcg");
  analyze.grid = {20.0, 3};
  (void)warm.analyze(analyze);  // pre-warms hpcg's graph AND its lowering
  const auto first = warm.campaign(req);
  const auto second = warm.campaign(req);  // fully warm repeat

  for (const auto format : kAllFormats) {
    EXPECT_EQ(rendered(cold_res, format), rendered(first, format));
    EXPECT_EQ(rendered(cold_res, format), rendered(second, format));
  }
  EXPECT_EQ(cold_res.to_json_line(), second.to_json_line());
  EXPECT_GT(warm.solver_cache_stats().replays, 0u);
}

// ---------------------------------------------------------------------------
// Batch execution.
// ---------------------------------------------------------------------------

std::string mixed_workload_jsonl() {
  // >= 20 requests mixing every op, small enough to stay fast.
  std::string in;
  for (const char* app : {"lulesh", "hpcg", "milc", "icon"}) {
    in += std::string("{\"op\": \"analyze\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}}\n";
    in += std::string("{\"op\": \"sweep\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}}\n";
    in += std::string("{\"op\": \"mc\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}, \"grid\": {\"dl_max_us\": 20, "
          "\"points\": 3}, \"samples\": 4, \"sigma_L\": 0.05}\n";
    in += std::string("{\"op\": \"topo\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}}\n";
    in += std::string("{\"op\": \"place\", \"app\": {\"name\": \"") + app +
          "\", \"scale\": 0.02}}\n";
  }
  in +=
      "{\"op\": \"campaign\", \"apps\": [\"lulesh\", \"hpcg\"], "
      "\"scales\": [0.02], \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n";
  return in;  // 21 requests
}

TEST(ApiSolverCache, WarmBatchBytesAreThreadCountInvariant) {
  // The full mixed workload, served twice on one engine: the warm pass
  // must reproduce the cold pass byte for byte, at 1 and at 8 threads.
  const std::string input = mixed_workload_jsonl();
  auto serve_twice = [&](int threads) {
    api::Engine engine(api::Engine::Options{.threads = threads});
    std::istringstream in1(input);
    std::ostringstream out1;
    (void)api::serve_jsonl(engine, in1, out1, threads);
    std::istringstream in2(input);
    std::ostringstream out2;
    (void)api::serve_jsonl(engine, in2, out2, threads);
    EXPECT_EQ(out1.str(), out2.str())
        << "warm pass changed bytes at threads=" << threads;
    return out2.str();
  };
  EXPECT_EQ(serve_twice(1), serve_twice(8));
}

TEST(ApiBatch, ByteDeterministicAcrossThreadCounts) {
  const std::string input = mixed_workload_jsonl();
  auto serve = [&](int threads) {
    // Pool sized to the requested count so the 8-thread run is genuinely
    // parallel whatever the host's core count.
    api::Engine engine(api::Engine::Options{.threads = threads});
    std::istringstream in(input);
    std::ostringstream out;
    const auto outcome = api::serve_jsonl(engine, in, out, threads);
    EXPECT_EQ(outcome.requests, 21u);
    EXPECT_EQ(outcome.failures, 0u);
    return out.str();
  };
  const std::string serial = serve(1);
  const std::string parallel = serve(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ApiBatch, ResultsComeBackInInputOrder) {
  const std::string input = mixed_workload_jsonl();
  api::Engine engine(api::Engine::Options{.threads = 8});
  std::istringstream in(input);
  std::ostringstream out;
  (void)api::serve_jsonl(engine, in, out, 8);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t expect_id = 0;
  while (std::getline(lines, line)) {
    const JsonValue doc = JsonValue::parse(line);
    const JsonValue* id = doc.find("id");
    ASSERT_NE(id, nullptr) << line;
    EXPECT_EQ(id->as_number("id"), static_cast<double>(expect_id));
    EXPECT_NE(doc.find("result"), nullptr) << line;
    ++expect_id;
  }
  EXPECT_EQ(expect_id, 21u);
}

TEST(ApiBatch, BadLinesFailInBandAndDoNotAbortTheBatch) {
  const std::string input =
      "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": "
      "0.02}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}}\n"
      "\n"  // blank lines are skipped
      "this is not json\n"
      "{\"op\": \"sweep\", \"grid\": {\"points\": 1}}\n"
      "{\"op\": \"analyze\", \"app\": {\"name\": \"no-such-app\"}}\n"
      "{\"op\": \"sweep\", \"bogus_field\": 1}\n"
      "{\"op\": \"place\", \"app\": {\"name\": \"icon\", \"scale\": "
      "0.02}}\n";
  api::Engine engine;
  std::istringstream in(input);
  std::ostringstream out;
  const auto outcome = api::serve_jsonl(engine, in, out, 2);
  EXPECT_EQ(outcome.requests, 6u);
  EXPECT_EQ(outcome.failures, 4u);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"result\""), std::string::npos);
  // Unparseable JSON: error with no op to echo.
  EXPECT_NE(lines[1].find("\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"usage\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"op\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\": \"usage\""), std::string::npos);
  EXPECT_NE(lines[2].find("points"), std::string::npos);
  EXPECT_NE(lines[3].find("\"kind\": \"analysis\""), std::string::npos);
  // A rejected-but-readable request still echoes its op.
  EXPECT_NE(lines[4].find("\"op\": \"sweep\""), std::string::npos);
  EXPECT_NE(lines[4].find("bogus_field"), std::string::npos);
  EXPECT_NE(lines[5].find("\"result\""), std::string::npos);
}

TEST(ApiBatch, RunBatchSharesTheSessionCache) {
  api::Engine engine(api::Engine::Options{.threads = 4});
  std::vector<api::Request> requests;
  for (int i = 0; i < 6; ++i) {
    api::SweepRequest req;
    req.app = small_app("lulesh");
    req.grid = {20.0, 3};
    requests.emplace_back(req);
  }
  const auto outcomes = engine.run_batch(requests, 4);
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.response.has_value());
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.built, 1u) << "identical requests must share one graph";
  EXPECT_EQ(stats.hits, 5u);
}

TEST(ApiBatch, ConcurrentRunBatchCallsSerializeSafely) {
  // The engine doc promises concurrent run_batch callers are safe (they
  // serialize on an internal lock); both batches must complete cleanly.
  api::Engine engine(api::Engine::Options{.threads = 4});
  auto batch_of = [](const char* app) {
    std::vector<api::Request> reqs;
    for (int i = 0; i < 4; ++i) {
      api::SweepRequest req;
      req.app = small_app(app);
      req.grid = {20.0, 3};
      reqs.emplace_back(req);
    }
    return reqs;
  };
  std::vector<api::Engine::Outcome> a, b;
  std::thread t1([&] { a = engine.run_batch(batch_of("lulesh"), 4); });
  std::thread t2([&] { b = engine.run_batch(batch_of("hpcg"), 4); });
  t1.join();
  t2.join();
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (const auto& o : a) EXPECT_TRUE(o.response.has_value()) << o.error;
  for (const auto& o : b) EXPECT_TRUE(o.response.has_value()) << o.error;
}

TEST(ApiBatch, CrlfBlankLinesAndMissingTrailingNewlineAreHandled) {
  const std::string sweep_line =
      "{\"op\": \"sweep\", \"app\": {\"name\": \"lulesh\", \"scale\": "
      "0.02}, \"grid\": {\"dl_max_us\": 20, \"points\": 3}}";
  const std::string place_line =
      "{\"op\": \"place\", \"app\": {\"name\": \"icon\", \"scale\": 0.02}}";
  const std::string lf = sweep_line + "\n" + place_line + "\n";
  // Same two requests: CRLF endings, a whitespace-only CR line between
  // them, and no trailing newline on the last request.
  const std::string crlf = sweep_line + "\r\n\r\n" + place_line;

  auto serve = [](const std::string& input) {
    api::Engine engine;
    std::istringstream in(input);
    std::ostringstream out;
    const auto outcome = api::serve_jsonl(engine, in, out, 2);
    EXPECT_EQ(outcome.requests, 2u);
    EXPECT_EQ(outcome.failures, 0u);
    return out.str();
  };
  EXPECT_EQ(serve(lf), serve(crlf));
}

TEST(ApiBatch, ParseErrorsNameThePhysicalInputLine) {
  // Leading blanks shift request ids off physical line numbers — the
  // in-band error must name the physical line, id stays the request index.
  const std::string input = "\n\nnot json\r\n{\"op\": \"sweep\"[]}\n";
  api::Engine engine;
  std::istringstream in(input);
  std::ostringstream out;
  const auto outcome = api::serve_jsonl(engine, in, out, 1);
  EXPECT_EQ(outcome.requests, 2u);
  EXPECT_EQ(outcome.failures, 2u);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("input line 3:"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("input line 4:"), std::string::npos) << lines[1];
}

// ---------------------------------------------------------------------------
// Non-finite hygiene (PR 7): inf/nan must never reach any serializer as a
// bare JSON token — parameters are rejected at validation, and every value
// emitter degrades to null.
// ---------------------------------------------------------------------------

TEST(ApiNonFinite, ParamOverridesAreRejectedAtValidation) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  api::Engine engine;
  for (const double bad : {nan, inf}) {
    api::AnalyzeRequest req;
    req.app = small_app("lulesh");
    req.grid = {20.0, 3};
    req.app.L = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
    req.app.L.reset();
    req.app.o = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
    req.app.o.reset();
    req.app.G = bad;
    EXPECT_THROW((void)engine.analyze(req), Error);
  }
}

TEST(ApiNonFinite, ReportJsonEmitsNullForNonFiniteValues) {
  core::ToleranceReport rep;
  rep.params = loggops::NetworkConfig::cscs_testbed();
  rep.base_runtime = std::numeric_limits<double>::infinity();
  rep.lambda_L_base = std::numeric_limits<double>::quiet_NaN();
  rep.lambda_G = -std::numeric_limits<double>::infinity();
  rep.bands.push_back({1.0, std::numeric_limits<double>::infinity()});
  core::LatencyAnalyzer::SweepPoint pt;
  pt.delta_L = 0.0;
  pt.runtime = std::numeric_limits<double>::quiet_NaN();
  pt.lambda_L = std::numeric_limits<double>::infinity();
  pt.rho_L = 0.5;
  rep.curve.push_back(pt);
  rep.critical_latencies.push_back(
      std::numeric_limits<double>::infinity());

  for (const std::string& json : {rep.to_json(), rep.to_json_line()}) {
    // Must parse as JSON at all (bare inf/nan tokens would throw) ...
    const JsonValue doc = JsonValue::parse(json);
    // ... and the non-finite members must have degraded to null.
    EXPECT_NE(json.find("\"base_runtime_ns\": null"), std::string::npos);
    EXPECT_NE(json.find("\"lambda_l\": null"), std::string::npos);
    EXPECT_NE(json.find("\"lambda_g\": null"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    (void)doc;
  }
}

TEST(ApiNonFinite, TableEmittersQuoteNonFiniteCells) {
  // The table→JSON renderers type cells by "parses as a finite number":
  // non-finite cells (unbounded tolerances) must come out as strings or
  // null, never bare tokens.  mc summaries with unbounded samples are the
  // natural producer.
  api::McRequest req;
  req.app = small_app("lulesh");
  req.grid = {20.0, 3};
  req.samples = 2;
  req.seed = 3;
  api::Engine engine;
  const auto res = engine.mc(req);  // degenerate: tolerances unbounded iff flat
  const std::string line = res.to_json_line();
  (void)JsonValue::parse(line);
  const std::string json = rendered(res, core::OutputFormat::kJson);
  std::istringstream rows(json);
  std::string row;
  while (std::getline(rows, row)) {
    EXPECT_EQ(row.find(": inf"), std::string::npos) << row;
    EXPECT_EQ(row.find(": nan"), std::string::npos) << row;
  }
}

// Degenerate-input hygiene of the JSON layer itself.
TEST(ApiJsonValue, ParserEdgeCases) {
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 01}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": +1}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": tru}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": \"x}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("[1, 2,]"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 1, \"a\": 2}"), UsageError);
  EXPECT_THROW((void)JsonValue::parse("nullx"), UsageError);

  const JsonValue v = JsonValue::parse(
      " {\"s\": \"a\\u0041\\n\", \"n\": -1.5e3, \"b\": true, "
      "\"x\": null, \"arr\": [1, \"two\"]} ");
  EXPECT_EQ(v.find("s")->as_string("s"), "aA\n");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number("n"), -1500.0);
  EXPECT_TRUE(v.find("b")->as_bool("b"));
  EXPECT_TRUE(v.find("x")->is_null());
  EXPECT_EQ(v.find("arr")->as_array("arr").size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ApiJsonValue, JsonDoubleRoundTrips) {
  for (const double x : {0.0, 0.25, 0.1, 1e-9, 3.0000000001, 12345.678,
                         1.7976931348623157e308}) {
    const std::string s = json_double(x);
    EXPECT_EQ(std::stod(s), x) << s;
  }
  EXPECT_EQ(json_double(0.25), "0.25");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace llamp
