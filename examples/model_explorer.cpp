// Model explorer: run any protocol or baseline at chosen parameters.
//
//   $ ./model_explorer <protocol> [n] [eps] [seed]
//   $ ./model_explorer list                 # everything in the registry
//
// protocols: any name from `model_explorer list` (the workload/registry
// scenarios, same catalogue as `flipsim --list`; majority is one), or one
// of the aliases below: breathe | desync | forward | silent | voter |
// two-choices | three-majority | aae. n and eps default to the entry's
// own; trial 0 of `seed` runs.

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>

#include "workload/registry.hpp"

namespace {

constexpr std::pair<std::string_view, std::string_view> kAliases[] = {
    {"breathe", "broadcast"},
    {"desync", "desync_clock_sync"},
    {"forward", "baseline_forward"},
    {"silent", "baseline_silent"},
    {"voter", "baseline_voter"},
    {"two-choices", "baseline_two_choices"},
    {"three-majority", "baseline_three_majority"},
    {"aae", "baseline_aae"},
};

int usage() {
  std::cerr << "usage: model_explorer <breathe|majority|desync|forward|"
               "silent|voter|two-choices|three-majority|aae|list|"
               "<registry scenario>> [n] [eps] [seed]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string name = argv[1];
  const flip::ScenarioRegistry& registry = flip::ScenarioRegistry::instance();
  if (name == "list") {
    for (const flip::ScenarioInfo* info : registry.list()) {
      std::cout << info->name << "  [" << info->problem << "]  "
                << info->summary << "\n";
    }
    return 0;
  }
  for (const auto& [alias, entry] : kAliases) {
    if (name == alias) name = entry;
  }
  if (!registry.contains(name)) return usage();

  flip::ScenarioOverrides overrides;
  if (argc > 2) overrides.n = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) overrides.eps = std::strtod(argv[3], nullptr);
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  try {
    // The same TrialFn flipsim sweeps.
    const flip::TrialOutcome o = registry.make(name, overrides)(seed, 0);
    std::cout << name << ": " << (o.success ? "success" : "no consensus")
              << ", correct fraction " << o.correct_fraction << ", rounds "
              << o.rounds << ", messages " << o.messages << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
