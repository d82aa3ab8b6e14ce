// Minimal command-line argument parsing for the tools/ binaries.
//
// Supports the conventional subcommand shape
//     vmpower <command> --key value --flag positional...
// with typed accessors and defaults. Every accessor records the option or
// positional it reads, so the reads a command makes are its flag
// declarations: reject_unread() then fails on anything the command never
// read instead of silently ignoring it.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace vmp::util {

/// Not thread-safe: reads are recorded on const accessors.
class CliArgs {
 public:
  /// Parses argv[1..). Tokens beginning with "--" are options; an option is
  /// a flag when the next token is absent or also an option, otherwise it
  /// consumes the next token as its value. Everything else is positional.
  /// Throws std::invalid_argument on a bare "--" or a repeated option.
  CliArgs(int argc, const char* const* argv);
  explicit CliArgs(const std::vector<std::string>& tokens);

  /// First positional argument (the subcommand), empty if none.
  [[nodiscard]] std::string command() const;
  /// Positional argument `index`, empty if absent.
  [[nodiscard]] std::string positional(std::size_t index) const;
  /// Every positional argument; all of them count as read.
  [[nodiscard]] const std::vector<std::string>& positionals() const;

  [[nodiscard]] bool has(const std::string& key) const noexcept;
  /// String option, or `fallback` when absent. A flag (no value) returns "".
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  /// Boolean flag: whether it is given. Throws std::invalid_argument when it
  /// is given a value (`--trace out.json` is not `--trace`).
  [[nodiscard]] bool get_flag(const std::string& key) const;
  /// Numeric options; throw std::invalid_argument when present but
  /// unparseable.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// Non-negative integer option as the unsigned type T. A negative value,
  /// or one T cannot hold, throws std::invalid_argument instead of wrapping
  /// or truncating.
  template <typename T>
  [[nodiscard]] T get_unsigned(const std::string& key, T fallback) const {
    const Option* option = find(key);
    return option ? static_cast<T>(parse_unsigned(
                        key, option->value, std::numeric_limits<T>::max()))
                  : fallback;
  }
  /// A count of whole ticks given as a number of seconds (truncated). The
  /// double-to-integer cast is undefined for a negative, NaN, infinite or
  /// >= 2^64 value, so those throw std::invalid_argument instead.
  [[nodiscard]] std::uint64_t get_ticks(const std::string& key,
                                        double fallback) const;

  /// Required options: throw std::invalid_argument with a usage-style
  /// message when absent or empty.
  [[nodiscard]] std::string require(const std::string& key) const;
  template <typename T>
  [[nodiscard]] T require_unsigned(const std::string& key) const {
    return static_cast<T>(
        parse_unsigned(key, require(key), std::numeric_limits<T>::max()));
  }

  /// Throws std::invalid_argument naming the command ("CMD: unknown flag
  /// --NAME", "CMD: unexpected argument 'X'") for the first option or
  /// positional that no accessor has read.
  void reject_unread() const;

 private:
  struct Option {
    std::string value;
    mutable bool read = false;
  };

  void parse(const std::vector<std::string>& tokens);
  /// The option under `key`, marked read; nullptr when absent.
  const Option* find(const std::string& key) const noexcept;

  /// `text` as an integer in [0, max]; throws std::invalid_argument naming
  /// --key otherwise.
  static std::uint64_t parse_unsigned(const std::string& key,
                                      const std::string& text,
                                      std::uint64_t max);

  std::map<std::string, Option> options_;
  std::vector<std::string> positionals_;
  mutable std::vector<bool> positional_read_;
};

/// Splits "a,b,c" into {"a","b","c"}; empty input gives an empty vector.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& text);

}  // namespace vmp::util
