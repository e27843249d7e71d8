// Schedule-identity guard: every pipeline preset, run over the 22 PolyBench
// kernels and over the three synthetic scop_gen families (deep, wide,
// dense) at fixed seeds, must print byte-identical IR to the checked-in
// digests in data/schedule_digests.txt. A compile-time speedup of the
// analysis core (caching, a different solver) may not change one chosen
// schedule, loop bound or parallel mark without updating that file — and
// explaining why.
//
// File format: one `<preset> <item> <fnv1a-64 hex>` line per case, where
// the digest is taken over ir::printProgram of the pipeline output. A
// mismatching or missing case prints its replacement line; a line naming
// a preset that is no longer registered fails too, so removing a preset
// also removes its digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/scop_gen.hpp"
#include "flow/presets.hpp"
#include "ir/ast.hpp"
#include "kernels/polybench.hpp"

namespace polyast {
namespace {

std::string fnv1aHex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s)
    h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
        1099511628211ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

using DigestKey = std::pair<std::string, std::string>;  // preset, item

std::map<DigestKey, std::string> loadDigests() {
  std::map<DigestKey, std::string> digests;
  std::ifstream in(POLYAST_SCHEDULE_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string preset, item, hex;
    fields >> preset >> item >> hex;
    digests[{preset, item}] = hex;
  }
  return digests;
}

/// The inputs every preset compiles: the kernel suite, then one member of
/// each scop_gen family (sizes small enough to keep the test quick, large
/// enough that skewing, tiling and fusion all have work to do).
std::vector<std::pair<std::string, ir::Program>> inputs() {
  std::vector<std::pair<std::string, ir::Program>> out;
  for (const auto& k : kernels::allKernels())
    out.emplace_back(k.name, k.build());
  const std::vector<std::pair<std::string, int>> families = {
      {"deep", 5}, {"wide", 12}, {"dense", 8}};
  for (const auto& [family, size] : families) {
    scopgen::GenOptions g;
    g.family = family;
    g.size = size;
    g.seed = 1;
    out.emplace_back(family + "-" + std::to_string(size),
                     scopgen::generate(g));
  }
  return out;
}

class ScheduleIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(ScheduleIdentity, PrintedIrMatchesCheckedInDigest) {
  const std::string& preset = GetParam();
  ASSERT_TRUE(std::ifstream(POLYAST_SCHEDULE_DIGESTS).good())
      << "cannot read " << POLYAST_SCHEDULE_DIGESTS;
  static const std::map<DigestKey, std::string> digests = loadDigests();
  flow::PassPipeline pipe = flow::makePipeline(preset);
  std::set<std::string> checked;
  for (const auto& [item, program] : inputs()) {
    std::string got = fnv1aHex(ir::printProgram(pipe.run(program)));
    checked.insert(item);
    auto it = digests.find({preset, item});
    if (it == digests.end()) {
      ADD_FAILURE() << "no checked-in digest; expected line:\n"
                    << preset << " " << item << " " << got;
    } else if (it->second != got) {
      ADD_FAILURE() << "IR changed; replacement line:\n"
                    << preset << " " << item << " " << got;
    }
  }
  for (const auto& [key, hex] : digests) {
    if (key.first != preset) continue;
    EXPECT_TRUE(checked.count(key.second))
        << "stale digest for an input no longer compiled: " << key.second;
  }
}

TEST(ScheduleIdentityData, EveryDigestNamesARegisteredPreset) {
  for (const auto& [key, hex] : loadDigests())
    EXPECT_TRUE(flow::hasPipelinePreset(key.first))
        << "digest for unregistered preset '" << key.first
        << "'; delete the line: " << key.first << " " << key.second << " "
        << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ScheduleIdentity, ::testing::ValuesIn(flow::pipelinePresets()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace polyast
