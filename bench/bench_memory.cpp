// E14 — Section 1.5 (per-agent memory).
//
// Claim: the protocol runs in O(log log n + log(1/eps)) bits of agent
// memory. agent_state_bits() counts the information-theoretic state a real
// agent needs under a schedule: phase index, round-in-phase counter, sample
// counters and the opinion bits. Squaring n should add O(1) bits; halving
// eps should add O(1) bits.

#include <cmath>

#include "cli/bench_report.hpp"
#include "core/agent.hpp"
#include "core/params.hpp"

int main(int argc, char** argv) {
  const auto options = flip::cli::parse_bench_args(argc, argv);
  flip::cli::bench_banner(
      options, "E14 bench_memory",
      "Section 1.5: O(log log n + log(1/eps)) memory bits per agent.\n"
      "Expect the bit count to move by O(1) when n is squared or eps "
      "halved — nothing like log n.");

  flip::TextTable table({"n", "eps", "agent state bits", "log2(n)",
                         "log2(log2 n) + 2 log2(1/eps)"});
  for (const std::size_t n :
       {std::size_t{1} << 8, std::size_t{1} << 16, std::size_t{1} << 24}) {
    for (const double eps : {0.4, 0.2, 0.1, 0.05}) {
      const flip::Params p = flip::Params::calibrated(n, eps);
      const double log2n = std::log2(static_cast<double>(n));
      const double model = std::log2(log2n) + 2.0 * std::log2(1.0 / eps);
      table.row()
          .cell(n)
          .cell(eps, 2)
          .cell(std::size_t{flip::agent_state_bits(p)})
          .cell(log2n, 0)
          .cell(model, 1);
    }
  }
  flip::cli::bench_emit(
      options, table,
      "The bits column tracks the log log n + log(1/eps) model (last "
      "column), not log2(n):\nagents with loglog-size memory suffice, as "
      "Section 1.5 states.");
  return 0;
}
