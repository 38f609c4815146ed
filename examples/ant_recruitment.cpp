// Ant recruitment: the paper's motivating biology (compare Razin, Eckmann,
// Feinerman 2013, "Desert ants achieve reliable recruitment across noisy
// interactions" — ref [55]).
//
// One scout has found food at one of two sites (site "1"). It recruits the
// colony through pairwise antennation contacts whose content is badly
// distorted: a nestmate reading a contact gets the wrong site with
// probability 1/2 - eps. The example watches the colony converge and prints
// the recruitment trajectory, contrasting "breathe" with the naive
// forward-immediately behaviour.

#include <iostream>

#include "core/breathe.hpp"
#include "net/channel.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

int main() {
  const std::size_t colony = 8192;  // workers
  const double eps = 0.15;          // heavily distorted antennation
  const std::uint64_t seed = 7;

  std::cout << "Colony of " << colony << " ants; one scout knows the food "
            << "site; contacts are wrong with probability " << (0.5 - eps)
            << ".\n\n";

  // --- Breathe-before-speaking recruitment --------------------------
  const flip::Params params = flip::Params::calibrated(colony, eps);
  const flip::StreamKey key = flip::trial_stream_key(seed, 0);
  flip::BinarySymmetricChannel channel(eps);
  flip::EngineOptions options;
  options.probe_every = params.total_rounds() / 16;
  flip::Engine engine(colony, channel, key, options);
  flip::BreatheProtocol protocol(params, flip::broadcast_config(), key);
  const flip::Metrics metrics = engine.run(protocol, protocol.total_rounds());

  flip::TextTable trajectory({"round", "recruited", "bias to true site"});
  for (std::size_t i = 0; i < metrics.bias_series.size(); ++i) {
    trajectory.row()
        .cell(std::size_t{metrics.bias_series[i].round})
        .cell(std::size_t{
            static_cast<std::size_t>(metrics.activated_series[i].value)})
        .cell(metrics.bias_series[i].value, 4);
  }
  std::cout << "Breathe-before-speaking recruitment trajectory:\n"
            << trajectory << "\n";
  std::cout << "Outcome: "
            << protocol.population().correct_fraction(flip::Opinion::kOne) *
                   100.0
            << "% of the colony heads to the true site after "
            << metrics.rounds << " contact rounds.\n\n";

  // --- Naive recruitment (forward immediately) ----------------------
  flip::ScenarioOverrides naive;
  naive.n = colony;
  naive.eps = eps;
  const flip::TrialFn forward =
      flip::ScenarioRegistry::instance().make("baseline_forward", naive);
  const flip::TrialOutcome naive_outcome = forward(seed, 2);
  std::cout << "Naive forwarding for comparison: everyone 'recruited' after "
            << naive_outcome.rounds << " rounds, but only "
            << naive_outcome.correct_fraction * 100.0
            << "% head to the true site (rumor depth destroys the signal).\n";
  return 0;
}
