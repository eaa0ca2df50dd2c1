#include "tools/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace rdmajoin {

namespace {

/// Column at which --help text starts.
constexpr size_t kHelpColumn = 32;

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : "|") + n;
  return out;
}

}  // namespace

bool ParseDoubleValue(std::string_view text, double* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  double v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseU64Value(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  uint64_t v = 0;
  // from_chars takes no sign for an unsigned type and reports overflow.
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

Flag StringFlag(std::string name, std::string value_name, std::string* dest,
                std::string help) {
  std::string expected = "a non-empty " + value_name;
  return Flag{std::move(name), std::move(value_name), std::move(help),
              std::move(expected), [dest](std::string_view v) {
                if (v.empty()) return false;
                *dest = std::string(v);
                return true;
              }};
}

Flag SwitchFlag(std::string name, bool* dest, std::string help) {
  return Flag{std::move(name), "", std::move(help), "", [dest](std::string_view) {
                *dest = true;
                return true;
              }};
}

Flag DoubleFlag(std::string name, double* dest, double lo, double hi,
                std::string help) {
  return Flag{std::move(name), "X", std::move(help),
              "a number in [" + FormatDouble(lo) + ", " + FormatDouble(hi) + "]",
              [dest, lo, hi](std::string_view v) {
                double x = 0;
                if (!ParseDoubleValue(v, &x) || x < lo || x > hi) return false;
                *dest = x;
                return true;
              }};
}

Flag UintFlagImpl(std::string name, uint64_t lo, uint64_t hi, std::string help,
                  std::function<void(uint64_t)> store) {
  std::string expected =
      lo == 0 && hi == std::numeric_limits<uint64_t>::max()
          ? "an unsigned integer"
          : "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                "]";
  return Flag{std::move(name), "N", std::move(help), std::move(expected),
              [lo, hi, store = std::move(store)](std::string_view v) {
                uint64_t x = 0;
                if (!ParseU64Value(v, &x) || x < lo || x > hi) return false;
                store(x);
                return true;
              }};
}

Flag ChoiceFlagImpl(std::string name, const std::vector<std::string>& names,
                    std::string help, std::function<void(size_t)> store) {
  const std::string joined = JoinNames(names);
  return Flag{std::move(name), joined, std::move(help), "one of " + joined,
              [names, store = std::move(store)](std::string_view v) {
                for (size_t i = 0; i < names.size(); ++i) {
                  if (names[i] == v) {
                    store(i);
                    return true;
                  }
                }
                return false;
              }};
}

Flag ChoiceFlag(std::string name, std::string* dest,
                std::vector<std::string> names, std::string help) {
  return ChoiceFlagImpl(std::move(name), names, std::move(help),
                        [dest, names](size_t i) { *dest = names[i]; });
}

FlagTable::FlagTable(std::string header, std::vector<Flag> flags,
                     std::string footer)
    : header_(std::move(header)),
      flags_(std::move(flags)),
      footer_(std::move(footer)) {}

void FlagTable::Positional(std::string value_name,
                           std::vector<std::string>* dest, std::string help) {
  positional_name_ = std::move(value_name);
  positional_help_ = std::move(help);
  positional_ = dest;
}

const Flag* FlagTable::Find(std::string_view name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagTable::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return Status::OK();
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (positional_ == nullptr) {
        return Status::InvalidArgument("unexpected argument: '" +
                                       std::string(arg) + "'");
      }
      positional_->emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag: '" + std::string(arg) + "'");
    }
    if (flag->value_name.empty() && eq != std::string_view::npos) {
      return Status::InvalidArgument(name + " takes no value");
    }
    if (!flag->value_name.empty() && eq == std::string_view::npos) {
      return Status::InvalidArgument(name + " needs a value: " + name + "=" +
                                     flag->value_name);
    }
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    if (!flag->set(value)) {
      return Status::InvalidArgument("invalid " + name + " value: '" +
                                     std::string(value) + "' (expected " +
                                     flag->expected + ")");
    }
    given_.insert(name);
  }
  return Status::OK();
}

std::optional<int> FlagTable::ParseOrExitCode(int argc, char** argv,
                                              int usage_exit) {
  if (const Status s = Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "error: %s; try --help\n", s.message().c_str());
    return usage_exit;
  }
  if (help_requested_) {
    std::fputs(Help().c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

bool FlagTable::Given(std::string_view name) const {
  return given_.find(name) != given_.end();
}

std::string FlagTable::Help() const {
  std::string out = header_ + "\n\n";
  auto row = [&out](const std::string& label, const std::string& help) {
    out += "  " + label;
    if (2 + label.size() + 2 > kHelpColumn) {
      out += "\n" + std::string(kHelpColumn, ' ');
    } else {
      out += std::string(kHelpColumn - 2 - label.size(), ' ');
    }
    for (const char c : help) {
      out += c;
      if (c == '\n') out += std::string(kHelpColumn, ' ');
    }
    out += "\n";
  };
  for (const Flag& f : flags_) {
    row(f.value_name.empty() ? f.name : f.name + "=" + f.value_name, f.help);
  }
  if (positional_ != nullptr) row(positional_name_, positional_help_);
  row("--help", "print this help and exit");
  if (!footer_.empty()) out += "\n" + footer_ + "\n";
  return out;
}

}  // namespace rdmajoin
