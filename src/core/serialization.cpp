#include "core/serialization.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/vhc.hpp"

namespace vmp::core {

namespace {

constexpr const char* kTableMagic = "vmpower-vsc-table v1";
constexpr const char* kApproxMagic = "vmpower-vhc-approx v1";
constexpr const char* kAccountantMagic = "vmpower-energy-accountant v1";
constexpr const char* kMultiHostMagic = "vmpower-multihost v1";

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("serialization: cannot open for write: " +
                             path.string());
  out.precision(12);
  return out;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("serialization: cannot open for read: " +
                             path.string());
  return in;
}

/// Parses all of `text` with std::from_chars; false unless it is one whole
/// number, and a finite one when T is floating-point.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(value);
  return true;
}

/// Parses the value of the header token `key=value` with parse_whole; false
/// unless the key matches and the value parses.
template <typename T>
bool parse_header(std::string_view token, std::string_view key, T& value) {
  if (!token.starts_with(key) || token.size() <= key.size() ||
      token[key.size()] != '=')
    return false;
  return parse_whole(token.substr(key.size() + 1), value);
}

[[noreturn]] void bad_header(std::string_view what, std::string_view token,
                             std::string_view key,
                             const std::string& expected) {
  throw std::runtime_error(std::string(what) + ": header " +
                           std::string(key) + " must be " + expected +
                           ", got '" + std::string(token) + "'");
}

/// A file's lines as whitespace-separated tokens, read to EOF. Every
/// complaint names the reader, the file and the 1-based line.
class LineTokens {
 public:
  LineTokens(std::istream& in, std::string_view what,
             const std::filesystem::path& path)
      : in_(in), what_(what), path_(path.string()) {}

  /// Moves to the next line holding a token; false at EOF.
  bool next_line() {
    while (std::getline(in_, line_)) {
      ++line_no_;
      pos_ = 0;
      skip_space();
      if (pos_ < line_.size()) return true;
    }
    return false;
  }

  /// The line's next token; empty when none is left.
  std::string_view token() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
    const std::string_view out(line_.data() + start, pos_ - start);
    skip_space();
    return out;
  }

  /// The next token, parsed by parse_whole.
  template <typename T>
  T number() {
    const std::string_view text = token();
    if (text.empty()) fail("the row ends early");
    T value{};
    if (!parse_whole(text, value))
      fail(std::string(std::is_floating_point_v<T> ? "expected a finite"
                                                   : "expected a whole") +
           " number, got '" + std::string(text) + "'");
    return value;
  }

  /// The next token as a row's combo: a non-empty set of the num_vhcs VHCs.
  VhcComboMask combo(std::size_t num_vhcs) {
    const auto combo = number<VhcComboMask>();
    if (combo == 0 || (combo >> num_vhcs) != 0)
      fail("combo " + std::to_string(combo) +
           " is not a non-empty set of the " + std::to_string(num_vhcs) +
           " VHCs");
    return combo;
  }

  /// Throws unless every token of the line was read.
  void end_line() {
    if (pos_ < line_.size())
      fail("unexpected '" + std::string(token()) + "'");
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what_ + ": " + path_ + " line " +
                             std::to_string(line_no_) + ": " + why);
  }

  static bool is_space(char c) noexcept {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  void skip_space() noexcept {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
  }

  std::istream& in_;
  std::string what_;
  std::string path_;
  std::string line_;
  std::size_t line_no_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint64_t header_count(std::string_view what, std::string_view token,
                           std::string_view key, std::uint64_t max) {
  std::uint64_t value = 0;
  if (!parse_header(token, key, value) || value > max)
    bad_header(what, token, key,
               "a whole number in [0, " + std::to_string(max) + "]");
  return value;
}

double header_finite(std::string_view what, std::string_view token,
                     std::string_view key) {
  double value = 0.0;
  if (!parse_header(token, key, value))
    bad_header(what, token, key, "a finite number");
  return value;
}

void save_table(const VscTable& table, const std::filesystem::path& path) {
  std::ofstream out = open_out(path);
  out << kTableMagic << " num_vhcs=" << table.num_vhcs()
      << " resolution=" << table.resolution() << '\n';
  for (const VhcComboMask combo : table.combos()) {
    for (const VscSample& sample : table.samples(combo)) {
      out << combo;
      for (const auto& state : sample.vhc_states)
        for (const double v : state.values()) out << ' ' << v;
      out << ' ' << sample.power_w << '\n';
    }
  }
  if (!out) throw std::runtime_error("save_table: write failed");
}

VscTable load_table(const std::filesystem::path& path) {
  std::ifstream in = open_in(path);
  LineTokens lines(in, "load_table", path);
  lines.next_line();
  const std::string_view kind = lines.token();
  const std::string_view version = lines.token();
  if (std::string(kind) + " " + std::string(version) != kTableMagic)
    throw std::runtime_error("load_table: bad magic in " + path.string());
  const auto num_vhcs = static_cast<std::size_t>(header_count(
      "load_table", lines.token(), "num_vhcs", VhcUniverse::kMaxVhcs));
  const double resolution =
      header_finite("load_table", lines.token(), "resolution");
  lines.end_line();

  VscTable table(num_vhcs, resolution);
  while (lines.next_line()) {
    const VhcComboMask combo = lines.combo(num_vhcs);
    std::vector<common::StateVector> states(num_vhcs);
    for (auto& state : states)
      for (std::size_t c = 0; c < common::kNumComponents; ++c)
        state[static_cast<common::Component>(c)] = lines.number<double>();
    const double power = lines.number<double>();
    lines.end_line();
    table.record(combo, states, power);
  }
  return table;
}

void save_approximation(const VhcLinearApprox& approx,
                        const std::filesystem::path& path) {
  std::ofstream out = open_out(path);
  out << kApproxMagic << " num_vhcs=" << approx.num_vhcs() << '\n';
  for (const auto& model : approx.export_models()) {
    out << model.combo;
    for (const double w : model.weights) out << ' ' << w;
    out << ' ' << model.rmse << ' ' << model.sample_count << '\n';
  }
  if (!out) throw std::runtime_error("save_approximation: write failed");
}

VhcLinearApprox load_approximation(const std::filesystem::path& path) {
  std::ifstream in = open_in(path);
  LineTokens lines(in, "load_approximation", path);
  lines.next_line();
  const std::string_view kind = lines.token();
  const std::string_view version = lines.token();
  if (std::string(kind) + " " + std::string(version) != kApproxMagic)
    throw std::runtime_error("load_approximation: bad magic in " +
                             path.string());
  const auto num_vhcs = static_cast<std::size_t>(header_count(
      "load_approximation", lines.token(), "num_vhcs", VhcUniverse::kMaxVhcs));
  lines.end_line();

  std::vector<VhcLinearApprox::ComboModelData> models;
  while (lines.next_line()) {
    VhcLinearApprox::ComboModelData data;
    data.combo = lines.combo(num_vhcs);
    data.weights.resize(num_vhcs * common::kNumComponents);
    for (double& w : data.weights) w = lines.number<double>();
    data.rmse = lines.number<double>();
    data.sample_count = lines.number<std::size_t>();
    lines.end_line();
    models.push_back(std::move(data));
  }
  return VhcLinearApprox::from_models(num_vhcs, models);
}

void write_accountant(std::ostream& out, const EnergyAccountant& accountant) {
  const auto ids = accountant.vm_ids();
  const auto precision = out.precision(17);
  out << kAccountantMagic
      << " policy=" << static_cast<int>(accountant.policy())
      << " seconds=" << accountant.accounted_seconds()
      << " entries=" << ids.size() << '\n';
  for (const std::uint32_t id : ids)
    out << id << ' ' << accountant.energy_j(id) << '\n';
  out.precision(precision);
  if (!out) throw std::runtime_error("write_accountant: write failed");
}

EnergyAccountant read_accountant(std::istream& in) {
  std::string magic_a, magic_b, policy_token, seconds_token, entries_token;
  in >> magic_a >> magic_b >> policy_token >> seconds_token >> entries_token;
  if (magic_a + " " + magic_b != kAccountantMagic)
    throw std::runtime_error("read_accountant: bad magic");
  const auto policy = static_cast<IdleAttribution>(
      header_count("read_accountant", policy_token, "policy",
                   static_cast<std::uint64_t>(IdleAttribution::kProportional)));
  const double seconds =
      header_finite("read_accountant", seconds_token, "seconds");
  const std::uint64_t entries =
      header_count("read_accountant", entries_token, "entries");

  // Rows are appended as they are read, so a count the file does not back
  // fails as truncation instead of as one huge allocation.
  std::vector<std::pair<std::uint32_t, double>> energies;
  for (std::uint64_t k = 0; k < entries; ++k) {
    std::uint32_t vm_id = 0;
    double joules = 0.0;
    if (!(in >> vm_id >> joules))
      throw std::runtime_error("read_accountant: truncated entry row");
    energies.emplace_back(vm_id, joules);
  }

  EnergyAccountant accountant(policy);
  accountant.restore(energies, seconds);
  return accountant;
}

void write_multi_host(std::ostream& out,
                      const MultiHostAccountant& accountant) {
  const auto records = accountant.energy_records();
  const auto precision = out.precision(17);
  out << kMultiHostMagic << " entries=" << records.size()
      << " unattributed=" << accountant.unattributed_energy_j() << '\n';
  for (const auto& record : records)
    out << record.tenant << ' ' << record.host << ' ' << record.joules
        << '\n';
  out.precision(precision);
  if (!out) throw std::runtime_error("write_multi_host: write failed");
}

void read_multi_host(std::istream& in, MultiHostAccountant& accountant) {
  std::string magic_a, magic_b, entries_token, unattributed_token;
  in >> magic_a >> magic_b >> entries_token >> unattributed_token;
  if (magic_a + " " + magic_b != kMultiHostMagic)
    throw std::runtime_error("read_multi_host: bad magic");
  const std::uint64_t entries =
      header_count("read_multi_host", entries_token, "entries");
  const double unattributed =
      header_finite("read_multi_host", unattributed_token, "unattributed");

  std::vector<MultiHostAccountant::EnergyRecord> records;
  for (std::uint64_t k = 0; k < entries; ++k) {
    MultiHostAccountant::EnergyRecord record;
    if (!(in >> record.tenant >> record.host >> record.joules))
      throw std::runtime_error("read_multi_host: truncated entry row");
    records.push_back(record);
  }
  accountant.restore(records, unattributed);
}

}  // namespace vmp::core
