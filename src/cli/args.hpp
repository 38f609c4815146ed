#pragma once
// Declarative command-line parsing shared by tools/flipsim and every
// bench/ binary (directly, or through parse_bench_args in
// cli/bench_report.hpp). Options are registered up front so --help is
// generated, unknown flags are errors instead of silently ignored, and no
// binary re-implements an argv loop.
//
// Supported shapes: "--flag", "--opt value", "--opt=value", and options
// whose value is optional ("--json" writes to stdout, "--json path" to a
// file). "-h" is an alias for "--help". Everything after "--" is
// positional.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace flip::cli {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Boolean switch: present -> *out = true.
  void add_flag(std::string name, std::string help, bool* out);

  /// Option with a required value.
  void add_option(std::string name, std::string value_name, std::string help,
                  std::string* out);
  /// Option whose value may be omitted: present without a value sets
  /// `*present` and leaves *out unchanged (e.g. bare "--json" = stdout).
  void add_optional_value(std::string name, std::string value_name,
                          std::string help, std::string* out, bool* present);

  /// Typed conveniences over add_option; parse errors are reported with
  /// the offending text.
  void add_size(std::string name, std::string help,
                std::optional<std::size_t>* out);
  void add_double(std::string name, std::string help,
                  std::optional<double>* out);
  void add_uint64(std::string name, std::string help,
                  std::optional<std::uint64_t>* out);

  /// Parses argv. Returns false when --help was requested (usage already
  /// considered handled by the caller printing usage()) or on error
  /// (error() is non-empty). Callable once.
  bool parse(int argc, const char* const* argv);

  /// True when option `name` (with its leading "--") was on the parsed
  /// command line, whatever its value.
  [[nodiscard]] bool given(std::string_view name) const;
  /// Every option on the parsed command line, in registration order.
  [[nodiscard]] std::vector<std::string> given_names() const;

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }
  /// "usage: ..." plus one aligned line per registered option.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kFlag, kValue, kOptionalValue };
  struct Spec {
    std::string name;  // including leading "--"
    std::string value_name;
    std::string help;
    Kind kind;
    std::function<bool(std::string_view value, std::string& error)> apply;
    bool* present = nullptr;  // kFlag / kOptionalValue
    bool given = false;
  };

  Spec* find(std::string_view name);

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
  std::string error_;
  bool help_ = false;
};

/// Parses the whole of `text` as a uint64, decimal or 0x hex (seeds are
/// conventionally hex in this repo: 0xE1, 0x5eed). False on anything else,
/// overflow and the empty string included. --seed, the --serve/--connect
/// ports, the flipsvc/1 number fields and the cell index of a `point`
/// frame share this grammar.
bool parse_uint64(std::string_view text, std::uint64_t& out);

/// Splits "1024,2048,4096" into size_t values; returns nullopt (with
/// `error` set) on any unparsable piece. Used for sweep grid flags.
std::optional<std::vector<std::size_t>> parse_size_list(std::string_view text,
                                                        std::string& error);
std::optional<std::vector<double>> parse_double_list(std::string_view text,
                                                     std::string& error);
std::vector<std::string> split_list(std::string_view text);

}  // namespace flip::cli
