#pragma once
// The whole-field number reader every text grammar of the repo shares: the
// CLI's flags and comma lists (cli/args.cpp) and the colon-separated specs
// (core/colon_spec.hpp).

#include <charconv>
#include <string_view>
#include <system_error>

namespace flip {

/// Reads all of `text` as a T with std::from_chars; `format` is its
/// optional last argument (an integer base or a std::chars_format). True
/// only when the whole text is one number of T's range: no sign on an
/// unsigned T, no leading space, no trailing character. `out` is
/// unspecified on false.
template <typename T, typename... Format>
[[nodiscard]] bool parse_whole(std::string_view text, T& out,
                               Format... format) {
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out, format...);
  return ec == std::errc{} && end == last;
}

}  // namespace flip
