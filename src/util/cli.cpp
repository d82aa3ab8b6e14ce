#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace vmp::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

CliArgs::CliArgs(const std::vector<std::string>& tokens) { parse(tokens); }

void CliArgs::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (key.empty()) throw std::invalid_argument("CliArgs: bare '--'");
      const bool next_is_value =
          i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0;
      // A flag (no value) keeps an empty value.
      const std::string value = next_is_value ? tokens[++i] : "";
      if (!options_.try_emplace(key, Option{value}).second)
        throw std::invalid_argument("--" + key + " is given more than once");
    } else {
      positionals_.push_back(token);
    }
  }
  positional_read_.assign(positionals_.size(), false);
}

std::string CliArgs::command() const { return positional(0); }

std::string CliArgs::positional(std::size_t index) const {
  if (index >= positionals_.size()) return {};
  positional_read_[index] = true;
  return positionals_[index];
}

const std::vector<std::string>& CliArgs::positionals() const {
  positional_read_.assign(positionals_.size(), true);
  return positionals_;
}

const CliArgs::Option* CliArgs::find(const std::string& key) const noexcept {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool CliArgs::has(const std::string& key) const noexcept {
  return find(key) != nullptr;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const Option* option = find(key);
  return option ? option->value : fallback;
}

bool CliArgs::get_flag(const std::string& key) const {
  const Option* option = find(key);
  if (option && !option->value.empty())
    throw std::invalid_argument("--" + key + " takes no value, got '" +
                                option->value + "'");
  return option != nullptr;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const Option* option = find(key);
  if (!option) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(option->value, &consumed);
    if (consumed != option->value.size())
      throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("CliArgs: --" + key +
                                " expects a number, got '" + option->value +
                                "'");
  }
}

std::uint64_t CliArgs::parse_unsigned(const std::string& key,
                                      const std::string& text,
                                      std::uint64_t max) {
  // Parse the digits after a leading '-' too, so a negative integer is
  // reported as one rather than as malformed.
  const bool negative = text.size() > 1 && text.front() == '-';
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, error] =
      std::from_chars(text.data() + (negative ? 1 : 0), end, value);
  if (error == std::errc::invalid_argument || stop != end)
    throw std::invalid_argument("CliArgs: --" + key +
                                " expects an integer, got '" + text + "'");
  if (negative) throw std::invalid_argument("--" + key + " must be >= 0");
  if (error == std::errc::result_out_of_range || value > max)
    throw std::invalid_argument("--" + key + " must be <= " +
                                std::to_string(max));
  return value;
}

std::uint64_t CliArgs::get_ticks(const std::string& key,
                                 double fallback) const {
  const double value = get_double(key, fallback);
  if (!(value >= 0.0 && value < 0x1p64))
    throw std::invalid_argument("--" + key + " must be >= 0 and < 2^64");
  return static_cast<std::uint64_t>(value);
}

std::string CliArgs::require(const std::string& key) const {
  const Option* option = find(key);
  if (!option || option->value.empty())
    throw std::invalid_argument("CliArgs: missing required option --" + key);
  return option->value;
}

void CliArgs::reject_unread() const {
  const std::string name = positionals_.empty() ? "" : positionals_[0];
  for (const auto& [key, option] : options_)
    if (!option.read)
      throw std::invalid_argument(name + ": unknown flag --" + key);
  for (std::size_t i = 0; i < positionals_.size(); ++i)
    if (!positional_read_[i])
      throw std::invalid_argument(name + ": unexpected argument '" +
                                  positionals_[i] + "'");
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace vmp::util
