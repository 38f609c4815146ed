#pragma once
// The field reader the colon-separated spec grammars share: --schedule and
// --churn (core/environment.cpp) and --topology (core/topology.cpp).
// Every failure throws std::invalid_argument as "<what>: '<text>'".

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse_whole.hpp"

namespace flip::colon_spec {

[[noreturn]] inline void bad_spec(std::string_view what,
                                  std::string_view spec) {
  throw std::invalid_argument(std::string(what) + ": '" + std::string(spec) +
                              "'");
}

/// Splits "a:b:c" into pieces (empty pieces preserved, unlike the CLI's
/// comma splitter — a missing field should be an error, not silence).
inline std::vector<std::string_view> split_colon(std::string_view text) {
  std::vector<std::string_view> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) {
      pieces.push_back(text.substr(start));
      return pieces;
    }
    pieces.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

/// Parses the whole field `text` of `spec` as a T (double or an unsigned
/// integer); otherwise throws `what`, quoting the field, or the whole spec
/// when the field is empty.
template <typename T>
T parse_field(std::string_view text, std::string_view spec,
              std::string_view what) {
  T value{};
  if (!parse_whole(text, value)) bad_spec(what, text.empty() ? spec : text);
  return value;
}

inline double parse_number(std::string_view text, std::string_view spec) {
  return parse_field<double>(text, spec, "not a number");
}

}  // namespace flip::colon_spec
