#include "cli/args.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/parse_whole.hpp"

namespace flip::cli {

bool parse_uint64(std::string_view text, std::uint64_t& out) {
  int base = 10;
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
    base = 16;
  }
  return parse_whole(text, out, base);
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser::Spec* ArgParser::find(std::string_view name) {
  for (Spec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void ArgParser::add_flag(std::string name, std::string help, bool* out) {
  *out = false;
  Spec spec{std::move(name), "", std::move(help), Kind::kFlag, nullptr, out};
  specs_.push_back(std::move(spec));
}

void ArgParser::add_option(std::string name, std::string value_name,
                           std::string help, std::string* out) {
  Spec spec{std::move(name), std::move(value_name), std::move(help),
            Kind::kValue,
            [out](std::string_view value, std::string&) {
              *out = std::string(value);
              return true;
            },
            nullptr};
  specs_.push_back(std::move(spec));
}

void ArgParser::add_optional_value(std::string name, std::string value_name,
                                   std::string help, std::string* out,
                                   bool* present) {
  *present = false;
  Spec spec{std::move(name), std::move(value_name), std::move(help),
            Kind::kOptionalValue,
            [out](std::string_view value, std::string&) {
              *out = std::string(value);
              return true;
            },
            present};
  specs_.push_back(std::move(spec));
}

void ArgParser::add_size(std::string name, std::string help,
                         std::optional<std::size_t>* out) {
  const std::string flag = name;
  Spec spec{std::move(name), "N", std::move(help), Kind::kValue,
            [out, flag](std::string_view value, std::string& error) {
              std::size_t parsed = 0;
              if (!parse_whole(value, parsed)) {
                error = flag + ": not a non-negative integer: '" +
                        std::string(value) + "'";
                return false;
              }
              *out = parsed;
              return true;
            },
            nullptr};
  specs_.push_back(std::move(spec));
}

void ArgParser::add_double(std::string name, std::string help,
                           std::optional<double>* out) {
  const std::string flag = name;
  Spec spec{std::move(name), "X", std::move(help), Kind::kValue,
            [out, flag](std::string_view value, std::string& error) {
              double parsed = 0.0;
              if (!parse_whole(value, parsed)) {
                error =
                    flag + ": not a number: '" + std::string(value) + "'";
                return false;
              }
              *out = parsed;
              return true;
            },
            nullptr};
  specs_.push_back(std::move(spec));
}

void ArgParser::add_uint64(std::string name, std::string help,
                           std::optional<std::uint64_t>* out) {
  const std::string flag = name;
  Spec spec{std::move(name), "N", std::move(help), Kind::kValue,
            [out, flag](std::string_view value, std::string& error) {
              std::uint64_t parsed = 0;
              if (!parse_uint64(value, parsed)) {
                error = flag + ": not an integer (decimal or 0x hex): '" +
                        std::string(value) + "'";
                return false;
              }
              *out = parsed;
              return true;
            },
            nullptr};
  specs_.push_back(std::move(spec));
}

bool ArgParser::parse(int argc, const char* const* argv) {
  bool only_positionals = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (only_positionals) {
      positionals_.emplace_back(arg);
      continue;
    }
    if (arg == "--") {
      only_positionals = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return false;
    }
    if (!arg.starts_with("--")) {
      positionals_.emplace_back(arg);
      continue;
    }

    std::string_view name = arg;
    std::optional<std::string_view> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    Spec* spec = find(name);
    if (spec == nullptr) {
      error_ = "unknown option '" + std::string(name) + "'";
      return false;
    }
    spec->given = true;

    switch (spec->kind) {
      case Kind::kFlag:
        if (inline_value) {
          error_ = std::string(name) + " takes no value";
          return false;
        }
        *spec->present = true;
        break;
      case Kind::kValue: {
        std::string_view value;
        if (inline_value) {
          value = *inline_value;
        } else if (i + 1 < argc) {
          value = argv[++i];
        } else {
          error_ = std::string(name) + " requires a value";
          return false;
        }
        if (!spec->apply(value, error_)) return false;
        break;
      }
      case Kind::kOptionalValue: {
        *spec->present = true;
        if (inline_value) {
          if (!spec->apply(*inline_value, error_)) return false;
        } else if (i + 1 < argc &&
                   !std::string_view(argv[i + 1]).starts_with("-")) {
          if (!spec->apply(argv[++i], error_)) return false;
        }
        break;
      }
    }
  }
  return true;
}

bool ArgParser::given(std::string_view name) const {
  return std::any_of(specs_.begin(), specs_.end(), [&](const Spec& spec) {
    return spec.given && spec.name == name;
  });
}

std::vector<std::string> ArgParser::given_names() const {
  std::vector<std::string> names;
  for (const Spec& spec : specs_) {
    if (spec.given) names.push_back(spec.name);
  }
  return names;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [options]\n";
  if (!description_.empty()) os << description_ << "\n";
  os << "\noptions:\n";
  std::size_t width = 0;
  std::vector<std::string> lefts;
  lefts.reserve(specs_.size() + 1);
  for (const Spec& spec : specs_) {
    std::string left = "  " + spec.name;
    if (spec.kind == Kind::kValue) {
      left += " <" + spec.value_name + ">";
    } else if (spec.kind == Kind::kOptionalValue) {
      left += " [" + spec.value_name + "]";
    }
    width = std::max(width, left.size());
    lefts.push_back(std::move(left));
  }
  lefts.push_back("  --help, -h");
  width = std::max(width, lefts.back().size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    os << lefts[i] << std::string(width - lefts[i].size() + 2, ' ')
       << specs_[i].help << "\n";
  }
  os << lefts.back() << std::string(width - lefts.back().size() + 2, ' ')
     << "show this help\n";
  return os.str();
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? text.size()
                                                            : comma;
    if (end > start) pieces.emplace_back(text.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return pieces;
}

std::optional<std::vector<std::size_t>> parse_size_list(std::string_view text,
                                                        std::string& error) {
  std::vector<std::size_t> values;
  for (const std::string& piece : split_list(text)) {
    std::size_t value = 0;
    if (!parse_whole(piece, value)) {
      error = "not a non-negative integer: '" + piece + "'";
      return std::nullopt;
    }
    values.push_back(value);
  }
  if (values.empty()) {
    error = "empty list";
    return std::nullopt;
  }
  return values;
}

std::optional<std::vector<double>> parse_double_list(std::string_view text,
                                                     std::string& error) {
  std::vector<double> values;
  for (const std::string& piece : split_list(text)) {
    double value = 0.0;
    if (!parse_whole(piece, value)) {
      error = "not a number: '" + piece + "'";
      return std::nullopt;
    }
    values.push_back(value);
  }
  if (values.empty()) {
    error = "empty list";
    return std::nullopt;
  }
  return values;
}

}  // namespace flip::cli
