// Model explorer: run any protocol or baseline at chosen parameters.
//
//   $ ./model_explorer <protocol> [n] [eps] [seed]
//   $ ./model_explorer list                 # everything in the registry
//
// protocols: breathe | majority | desync | forward | silent | voter |
//            two-choices | three-majority | aae | any name from
//            `model_explorer list` (the workload/registry scenarios,
//            same catalogue as `flipsim --list`)

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "baselines/aae.hpp"
#include "baselines/forward.hpp"
#include "baselines/pull_majority.hpp"
#include "baselines/silent.hpp"
#include "baselines/voter.hpp"
#include "core/theory.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/registry.hpp"
#include "workload/scenarios.hpp"

namespace {

int usage() {
  std::cerr << "usage: model_explorer <breathe|majority|desync|forward|"
               "silent|voter|two-choices|three-majority|aae|list|"
               "<registry scenario>> [n] [eps] [seed]\n";
  return 2;
}

void report(const char* what, bool success, double correct_fraction,
            double rounds, double messages) {
  std::cout << what << ": " << (success ? "success" : "no consensus")
            << ", correct fraction " << correct_fraction << ", rounds "
            << rounds << ", messages " << messages << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string protocol = argv[1];
  const std::size_t n = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4096;
  const double eps = argc > 3 ? std::strtod(argv[3], nullptr) : 0.2;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;

  const double cap_unit = flip::theory::round_unit(n, eps);

  if (protocol == "breathe") {
    flip::BroadcastScenario scenario{.n = n, .eps = eps};
    const flip::RunDetail d = flip::run_broadcast(scenario, seed, 0);
    report("breathe broadcast", d.success, d.correct_fraction,
           static_cast<double>(d.metrics.rounds),
           static_cast<double>(d.metrics.messages_sent));
  } else if (protocol == "majority") {
    flip::MajorityScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.initial_set = std::max<std::size_t>(64, n / 16);
    scenario.majority_bias = 0.25;
    const flip::RunDetail d = flip::run_majority(scenario, seed, 0);
    report("majority-consensus", d.success, d.correct_fraction,
           static_cast<double>(d.metrics.rounds),
           static_cast<double>(d.metrics.messages_sent));
  } else if (protocol == "desync") {
    flip::DesyncScenario scenario;
    scenario.n = n;
    scenario.eps = eps;
    scenario.use_clock_sync = true;
    const flip::RunDetail d = flip::run_desync(scenario, seed, 0);
    report("desync broadcast", d.success, d.correct_fraction,
           static_cast<double>(d.metrics.rounds),
           static_cast<double>(d.metrics.messages_sent));
    std::cout << "  measured clock skew " << d.measured_skew
              << ", schedule overhead " << d.desync_overhead << " rounds\n";
  } else if (protocol == "forward") {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 0));
    flip::ForwardConfig config;
    config.initial = {flip::Seed{0, flip::Opinion::kOne}};
    config.stop_when_all_informed = true;
    flip::ForwardGossipProtocol p(n, config);
    const flip::Metrics m = engine.run(p, 1 << 20);
    report("forward gossip", p.population().unanimous(flip::Opinion::kOne),
           p.population().correct_fraction(flip::Opinion::kOne),
           static_cast<double>(m.rounds),
           static_cast<double>(m.messages_sent));
  } else if (protocol == "silent") {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 0));
    flip::SilentConfig config;
    config.samples_needed =
        flip::next_odd(static_cast<std::uint64_t>(cap_unit));
    config.max_rounds = static_cast<flip::Round>(
        64.0 * static_cast<double>(n) * cap_unit);
    flip::SilentListeningProtocol p(n, config);
    const flip::Metrics m = engine.run(p, config.max_rounds);
    report("silent listening", p.all_decided(),
           p.population().correct_fraction(flip::Opinion::kOne),
           static_cast<double>(m.rounds),
           static_cast<double>(m.messages_sent));
  } else if (protocol == "voter") {
    flip::BinarySymmetricChannel channel(eps);
    flip::Engine engine(n, channel, flip::trial_stream_key(seed, 0));
    flip::VoterConfig config;
    config.zealots = {flip::Seed{0, flip::Opinion::kOne}};
    config.duration = static_cast<flip::Round>(16.0 * cap_unit);
    flip::NoisyVoterProtocol p(n, config);
    const flip::Metrics m = engine.run(p, config.duration);
    report("noisy voter", p.population().unanimous(flip::Opinion::kOne),
           p.population().correct_fraction(flip::Opinion::kOne),
           static_cast<double>(m.rounds),
           static_cast<double>(m.messages_sent));
  } else if (protocol == "two-choices" || protocol == "three-majority") {
    flip::BinarySymmetricChannel channel(eps);
    flip::PullMajorityConfig config;
    config.rule = protocol == "two-choices" ? flip::PullRule::kTwoPlusOwn
                                            : flip::PullRule::kThreeSamples;
    config.initial_correct_fraction = 0.6;
    config.max_rounds = static_cast<flip::Round>(8.0 * cap_unit);
    flip::PullMajorityDynamics dynamics(n, config, channel,
                                        flip::trial_stream_key(seed, 0));
    const flip::PullMajorityResult r = dynamics.run();
    report(protocol.c_str(), r.consensus && r.correct,
           r.final_correct_fraction, static_cast<double>(r.rounds),
           static_cast<double>(r.rounds) * static_cast<double>(n) *
               (config.rule == flip::PullRule::kTwoPlusOwn ? 2.0 : 3.0));
  } else if (protocol == "aae") {
    flip::AAEConfig config;
    config.initial_correct = n / 8;
    config.initial_wrong = n / 16;
    config.eps = eps;
    config.max_rounds = static_cast<flip::Round>(8.0 * cap_unit);
    flip::ThreeStateAAE aae(n, config, flip::trial_stream_key(seed, 0));
    const flip::AAEResult r = aae.run();
    report("three-state AAE", r.consensus && r.correct,
           r.final_correct_fraction, static_cast<double>(r.rounds),
           static_cast<double>(r.rounds) * static_cast<double>(n));
  } else if (protocol == "list") {
    for (const flip::ScenarioInfo* info :
         flip::ScenarioRegistry::instance().list()) {
      std::cout << info->name << "  [" << info->problem << "]  "
                << info->summary << "\n";
    }
  } else if (flip::ScenarioRegistry::instance().contains(protocol)) {
    // Any registered scenario runs through the same TrialFn flipsim sweeps.
    try {
      flip::ScenarioOverrides overrides;
      if (argc > 2) overrides.n = n;
      if (argc > 3) overrides.eps = eps;
      const flip::TrialFn fn =
          flip::ScenarioRegistry::instance().make(protocol, overrides);
      const flip::TrialOutcome o = fn(seed, 0);
      report(protocol.c_str(), o.success, o.correct_fraction, o.rounds,
             o.messages);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  } else {
    return usage();
  }
  return 0;
}
