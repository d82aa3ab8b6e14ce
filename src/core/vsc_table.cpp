#include "core/vsc_table.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace vmp::core {

namespace {

/// Room for the longest cell key: validate_query() holds every state span
/// to num_vhcs_ <= kMaxVhcs entries before a key is built.
using KeyBuffer =
    std::array<char, sizeof(VhcComboMask) + VhcUniverse::kMaxVhcs *
                                                common::kNumComponents *
                                                sizeof(double)>;

/// Writes the bucket tuple of `state`, round(v / resolution) of every
/// coordinate, to `out` and returns one past it. Two quantized coordinates
/// in different buckets differ by at least one resolution step, so equal
/// bucket indices are exactly the states that StateVector::quantized() maps
/// to the same value. Both the cell keys and the per-VHC index are written
/// here, so they cannot disagree on a bucket.
char* write_buckets(const common::StateVector& state, double resolution,
                    char* out) noexcept {
  for (const double v : state.values()) {
    double bucket = std::round(v / resolution);
    if (bucket == 0.0) bucket = 0.0;  // -0.0 and +0.0 are one bucket.
    std::memcpy(out, &bucket, sizeof bucket);
    out += sizeof bucket;
  }
  return out;
}

/// Writes the cell key of (combo, vhc_states) into `buffer` and returns the
/// written prefix.
std::string_view cell_key(VhcComboMask combo,
                          std::span<const common::StateVector> vhc_states,
                          double resolution, KeyBuffer& buffer) noexcept {
  char* out = buffer.data();
  std::memcpy(out, &combo, sizeof combo);
  out += sizeof combo;
  for (const common::StateVector& state : vhc_states)
    out = write_buckets(state, resolution, out);
  return {buffer.data(), static_cast<std::size_t>(out - buffer.data())};
}

}  // namespace

VscTable::VscTable(std::size_t num_vhcs, double resolution)
    : num_vhcs_(num_vhcs), resolution_(resolution) {
  if (num_vhcs == 0 || num_vhcs > VhcUniverse::kMaxVhcs)
    throw std::invalid_argument("VscTable: bad VHC count");
  if (!(resolution > 0.0))
    throw std::invalid_argument("VscTable: resolution must be > 0");
  vhc_buckets_.resize(num_vhcs);
}

void VscTable::validate_query(
    VhcComboMask combo, std::span<const common::StateVector> vhc_states) const {
  if (vhc_states.size() != num_vhcs_)
    throw std::invalid_argument("VscTable: vhc_states size != num_vhcs");
  if (num_vhcs_ < 32 && (combo >> num_vhcs_) != 0)
    throw std::invalid_argument("VscTable: combo addresses unknown VHCs");
}

void VscTable::record(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states,
                      double power_w) {
  validate_query(combo, vhc_states);
  if (combo == 0)
    throw std::invalid_argument("VscTable::record: combo 0 holds no VHC");
  if (power_w < 0.0)
    throw std::invalid_argument("VscTable::record: negative power");
  VscSample sample;
  sample.combo = combo;
  sample.vhc_states.reserve(num_vhcs_);
  for (const auto& state : vhc_states)
    sample.vhc_states.push_back(state.quantized(resolution_));
  sample.power_w = power_w;
  samples_[combo].push_back(std::move(sample));

  KeyBuffer buffer{};
  Cell& cell =
      cells_[std::string(cell_key(combo, vhc_states, resolution_, buffer))];
  cell.power_sum += power_w;
  ++cell.count;
  for (VhcComboMask rest = combo; rest != 0; rest &= rest - 1) {
    const auto vhc = static_cast<std::size_t>(std::countr_zero(rest));
    Buckets buckets{};
    write_buckets(vhc_states[vhc], resolution_, buckets.data());
    vhc_buckets_[vhc].insert(buckets);
  }
  ++total_;
}

const std::vector<VscSample>& VscTable::samples(VhcComboMask combo) const {
  static const std::vector<VscSample> kEmpty;
  const auto it = samples_.find(combo);
  return it != samples_.end() ? it->second : kEmpty;
}

std::optional<double> VscTable::lookup(
    VhcComboMask combo, std::span<const common::StateVector> vhc_states) const {
  validate_query(combo, vhc_states);
  KeyBuffer buffer{};
  const auto it =
      cells_.find(cell_key(combo, vhc_states, resolution_, buffer));
  if (it == cells_.end()) return std::nullopt;
  return it->second.power_sum / static_cast<double>(it->second.count);
}

bool VscTable::may_hold(std::size_t vhc,
                        const common::StateVector& aggregate) const {
  if (vhc >= num_vhcs_)
    throw std::invalid_argument("VscTable::may_hold: VHC out of range");
  Buckets buckets{};
  write_buckets(aggregate, resolution_, buckets.data());
  return vhc_buckets_[vhc].contains(buckets);
}

std::vector<VhcComboMask> VscTable::combos() const {
  std::vector<VhcComboMask> out;
  out.reserve(samples_.size());
  for (const auto& [combo, _] : samples_) out.push_back(combo);
  return out;
}

}  // namespace vmp::core
