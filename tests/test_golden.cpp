#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli_driver.hpp"

// Golden-output wall for the llamp emitters: the exact bytes of
// `llamp analyze`, `sweep`, `campaign` (every format) and `mc` (JSON) are
// pinned against committed files, so a formatting regression fails CTest
// instead of silently shifting bench output or downstream CSV/JSON
// consumers.
//
// All invocations are pure LP analyses of seeded proxy traces — no wall
// clock, no RNG beyond seeded generators — so the bytes are deterministic.  To regenerate after an *intentional* change:
//   tests/golden/regen.sh <path-to-llamp-binary>

namespace llamp {
namespace {

/// The pinned invocations.  Keep in sync with tests/golden/regen.sh.
struct GoldenCase {
  const char* file;
  std::vector<const char*> args;
};

const std::vector<GoldenCase>& cases() {
  static const std::vector<GoldenCase> kCases = {
      {"analyze_lulesh.table.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50"}},
      {"analyze_lulesh.csv.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50", "--format=csv"}},
      {"analyze_lulesh.json.golden",
       {"analyze", "--app=lulesh", "--ranks=8", "--scale=0.05", "--points=3",
        "--dl-max-us=50", "--format=json"}},
      {"sweep_hpcg.table.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30"}},
      {"sweep_hpcg.csv.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30", "--format=csv"}},
      {"sweep_hpcg.json.golden",
       {"sweep", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=4",
        "--dl-max-us=30", "--format=json"}},
      {"campaign_grid.table.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20"}},
      {"campaign_grid.csv.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20", "--format=csv"}},
      {"campaign_grid.json.golden",
       {"campaign", "--apps=lulesh,hpcg,milc", "--ranks=8,27",
        "--topos=none,fat-tree", "--scales=0.02", "--points=3",
        "--dl-max-us=20", "--format=json"}},
      // Monte Carlo, 43 samples (two full lane groups and a ragged tail):
      // L-only jitter takes the shared-solver fast path, edge noise the
      // per-sample general path.
      {"mc_hpcg.json.golden",
       {"mc", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=6",
        "--dl-max-us=50", "--samples=43", "--sigma-L=0.1", "--format=json"}},
      {"mc_hpcg_noise.json.golden",
       {"mc", "--app=hpcg", "--ranks=8", "--scale=0.05", "--points=6",
        "--dl-max-us=50", "--samples=43", "--sigma-L=0.1",
        "--edge-sigma=0.003", "--format=json"}},
  };
  return kCases;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LLAMP_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "llamp");
  std::ostringstream out, err;
  const int code =
      tools::run(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_EQ(code, 0) << err.str();
  return out.str();
}

TEST(GoldenOutput, EmittersMatchCommittedBytes) {
  for (const GoldenCase& gc : cases()) {
    const std::string expected = read_golden(gc.file);
    ASSERT_FALSE(expected.empty()) << gc.file;
    const std::string actual = run_cli(gc.args);
    EXPECT_EQ(actual, expected)
        << gc.file << " drifted; if the change is intentional, regenerate "
        << "with tests/golden/regen.sh";
  }
}

}  // namespace
}  // namespace llamp
