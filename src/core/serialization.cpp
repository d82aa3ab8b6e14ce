#include "core/serialization.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

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

/// Parses the value of the header token `key=value` with std::from_chars;
/// false unless the key matches and the whole value parses.
template <typename T>
bool parse_header(std::string_view token, std::string_view key, T& value) {
  if (!token.starts_with(key) || token.size() <= key.size() ||
      token[key.size()] != '=')
    return false;
  const char* end = token.data() + token.size();
  const auto [stop, error] =
      std::from_chars(token.data() + key.size() + 1, end, value);
  return error == std::errc{} && stop == end;
}

[[noreturn]] void bad_header(std::string_view what, std::string_view token,
                             std::string_view key,
                             const std::string& expected) {
  throw std::runtime_error(std::string(what) + ": header " +
                           std::string(key) + " must be " + expected +
                           ", got '" + std::string(token) + "'");
}

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
  if (!parse_header(token, key, value) || !std::isfinite(value))
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
  std::string magic_a, magic_b, vhcs_token, resolution_token;
  in >> magic_a >> magic_b >> vhcs_token >> resolution_token;
  if (magic_a + " " + magic_b != kTableMagic)
    throw std::runtime_error("load_table: bad magic in " + path.string());
  const auto num_vhcs = static_cast<std::size_t>(header_count(
      "load_table", vhcs_token, "num_vhcs", VhcUniverse::kMaxVhcs));
  const double resolution =
      header_finite("load_table", resolution_token, "resolution");

  VscTable table(num_vhcs, resolution);
  VhcComboMask combo = 0;
  while (in >> combo) {
    std::vector<common::StateVector> states(num_vhcs);
    for (auto& state : states) {
      for (std::size_t c = 0; c < common::kNumComponents; ++c) {
        double v = 0.0;
        if (!(in >> v))
          throw std::runtime_error("load_table: truncated sample row");
        state[static_cast<common::Component>(c)] = v;
      }
    }
    double power = 0.0;
    if (!(in >> power))
      throw std::runtime_error("load_table: truncated sample row");
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
  std::string magic_a, magic_b, vhcs_token;
  in >> magic_a >> magic_b >> vhcs_token;
  if (magic_a + " " + magic_b != kApproxMagic)
    throw std::runtime_error("load_approximation: bad magic in " +
                             path.string());
  const auto num_vhcs = static_cast<std::size_t>(header_count(
      "load_approximation", vhcs_token, "num_vhcs", VhcUniverse::kMaxVhcs));

  std::vector<VhcLinearApprox::ComboModelData> models;
  VhcComboMask combo = 0;
  while (in >> combo) {
    VhcLinearApprox::ComboModelData data;
    data.combo = combo;
    data.weights.resize(num_vhcs * common::kNumComponents);
    for (double& w : data.weights)
      if (!(in >> w))
        throw std::runtime_error("load_approximation: truncated weight row");
    if (!(in >> data.rmse >> data.sample_count))
      throw std::runtime_error("load_approximation: truncated weight row");
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
