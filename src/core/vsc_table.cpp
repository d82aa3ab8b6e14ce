#include "core/vsc_table.hpp"

#include <stdexcept>

namespace vmp::core {

VscTable::VscTable(std::size_t num_vhcs, double resolution)
    : num_vhcs_(num_vhcs), resolution_(resolution) {
  if (num_vhcs == 0 || num_vhcs > VhcUniverse::kMaxVhcs)
    throw std::invalid_argument("VscTable: bad VHC count");
  if (!(resolution > 0.0))
    throw std::invalid_argument("VscTable: resolution must be > 0");
}

void VscTable::record(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states,
                      double power_w) {
  if (vhc_states.size() != num_vhcs_)
    throw std::invalid_argument("VscTable: vhc_states size != num_vhcs");
  if (num_vhcs_ < 32 && (combo >> num_vhcs_) != 0)
    throw std::invalid_argument("VscTable: combo addresses unknown VHCs");
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
  ++total_;
}

const std::vector<VscSample>& VscTable::samples(VhcComboMask combo) const {
  static const std::vector<VscSample> kEmpty;
  const auto it = samples_.find(combo);
  return it != samples_.end() ? it->second : kEmpty;
}

std::vector<VhcComboMask> VscTable::combos() const {
  std::vector<VhcComboMask> out;
  out.reserve(samples_.size());
  for (const auto& [combo, _] : samples_) out.push_back(combo);
  return out;
}

}  // namespace vmp::core
