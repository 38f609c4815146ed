#include "sim/series.hpp"

namespace flip {

std::optional<Round> stable_crossing(std::span<const Sample> series,
                                     double threshold) {
  // Scan backwards: find the last sample BELOW the threshold; the stable
  // crossing is the next sample after it (if any).
  std::size_t first_stable = series.size();
  for (std::size_t i = series.size(); i-- > 0;) {
    if (series[i].value < threshold) break;
    first_stable = i;
  }
  if (first_stable == series.size()) return std::nullopt;
  return series[first_stable].round;
}

}  // namespace flip
