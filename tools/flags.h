#ifndef RDMAJOIN_TOOLS_FLAGS_H_
#define RDMAJOIN_TOOLS_FLAGS_H_

// The one argv layer of the command-line tools and bench harnesses. Each
// program declares a table of flags -- name, help line, typed destination --
// and FlagTable parses argv against it, rejecting every malformed,
// non-finite or out-of-range value with a Status that names the flag and
// the value. --help text is generated from the same table.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace rdmajoin {

/// Strict full-token parsing: the whole token must be a finite number.
/// Protects against --scale=abc silently becoming scale 0, and against
/// nan/inf, which std::from_chars accepts.
bool ParseDoubleValue(std::string_view text, double* out);

/// Strict full-token parsing of a decimal unsigned integer: no sign, no
/// trailing bytes, no overflow past uint64_t.
bool ParseU64Value(std::string_view text, uint64_t* out);

/// Bounds of the size flags the tools share. They keep every derived size,
/// such as static_cast<uint64_t>(mtuples * 1e6 / scale), far inside the
/// type that holds it.
inline constexpr uint32_t kMaxMachines = 1024;
inline constexpr uint32_t kMaxCores = 1024;
inline constexpr double kMinMTuples = 1e-6;  // one tuple at scale 1
inline constexpr double kMaxMTuples = 1e6;
inline constexpr double kMaxScale = 1e9;
inline constexpr double kMaxZipf = 10;

/// One command-line flag. Build entries with the factories below.
struct Flag {
  std::string name;        // "--machines"
  std::string value_name;  // --help shows --name=VALUE; empty for a switch
  std::string help;        // may span lines separated by '\n'
  std::string expected;    // what a valid value looks like, for errors
  /// Stores a valid value in the destination; returns false to reject it.
  std::function<bool(std::string_view)> set;
};

/// Any non-empty string.
Flag StringFlag(std::string name, std::string value_name, std::string* dest,
                std::string help);

/// A flag without a value that sets `*dest` to true.
Flag SwitchFlag(std::string name, bool* dest, std::string help);

/// A finite number in [lo, hi].
Flag DoubleFlag(std::string name, double* dest, double lo, double hi,
                std::string help);

/// Shared by the UintFlag instantiations: an integer in [lo, hi] handed to
/// `store`.
Flag UintFlagImpl(std::string name, uint64_t lo, uint64_t hi, std::string help,
                  std::function<void(uint64_t)> store);

/// A decimal integer in [lo, hi]; `hi` is clamped to what `Int` holds.
template <typename Int>
Flag UintFlag(std::string name, Int* dest, uint64_t lo, uint64_t hi,
              std::string help) {
  static_assert(std::is_unsigned_v<Int>, "UintFlag needs an unsigned type");
  hi = std::min<uint64_t>(hi, std::numeric_limits<Int>::max());
  return UintFlagImpl(std::move(name), lo, hi, std::move(help),
                      [dest](uint64_t v) { *dest = static_cast<Int>(v); });
}

/// Shared by ChoiceFlag and the EnumFlag instantiations: one of `names`,
/// whose index is handed to `store`.
Flag ChoiceFlagImpl(std::string name, const std::vector<std::string>& names,
                    std::string help, std::function<void(size_t)> store);

/// One of a listed set of names, stored as the name itself.
Flag ChoiceFlag(std::string name, std::string* dest,
                std::vector<std::string> names, std::string help);

/// One of a listed set of names, each mapped to the value stored in `*dest`.
template <typename T>
Flag EnumFlag(std::string name, T* dest,
              std::vector<std::pair<std::string, T>> choices,
              std::string help) {
  std::vector<std::string> names;
  std::vector<T> values;
  for (auto& [choice, value] : choices) {
    names.push_back(std::move(choice));
    values.push_back(std::move(value));
  }
  return ChoiceFlagImpl(std::move(name), names, std::move(help),
                        [dest, values = std::move(values)](size_t i) {
                          *dest = values[i];
                        });
}

/// Parses argv against a table of flags. Flags are spelled --name=value (or
/// --name for a switch); a repeated flag keeps its last value. Arguments
/// that do not start with '-' are positional.
class FlagTable {
 public:
  /// `header` opens the --help text and `footer`, if any, closes it.
  FlagTable(std::string header, std::vector<Flag> flags,
            std::string footer = "");

  /// Collects positional arguments into `dest`. Without it, a positional
  /// argument is an error.
  void Positional(std::string value_name, std::vector<std::string>* dest,
                  std::string help);

  /// Parses argv[1..argc). --help or -h stops parsing and sets
  /// help_requested(). Errors name the flag and the rejected value.
  Status Parse(int argc, char** argv);

  /// Parse() for a main(): on --help prints Help() to stdout and returns 0;
  /// on an error prints it to stderr and returns `usage_exit`; returns
  /// nullopt when the program should go on.
  std::optional<int> ParseOrExitCode(int argc, char** argv, int usage_exit);

  bool help_requested() const { return help_requested_; }

  /// Whether argv set the flag named `name` ("--machines").
  bool Given(std::string_view name) const;

  std::string Help() const;

 private:
  const Flag* Find(std::string_view name) const;

  std::string header_;
  std::vector<Flag> flags_;
  std::string footer_;
  std::string positional_name_;
  std::string positional_help_;
  std::vector<std::string>* positional_ = nullptr;
  std::set<std::string, std::less<>> given_;
  bool help_requested_ = false;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_TOOLS_FLAGS_H_
