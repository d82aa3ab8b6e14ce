// The v(S, C) table of the paper's framework (Fig. 8): the offline dataset.
//
// During offline data collection the prototype stores, per VHC combination,
// the partially-measured (aggregated state, adjusted power) pairs at a fixed
// state-normalization resolution (0.01 in the paper's setup). `collect` saves
// it, `train` fits VhcLinearApprox on it, and the paper benches read it.
// Fig. 8 also looks states up in it online; this implementation prices every
// online worth by the regression instead (DESIGN.md, "The online path is the
// regression game").
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/state_vector.hpp"
#include "core/vhc.hpp"

namespace vmp::core {

/// One offline measurement: coalition combo, aggregated per-VHC states
/// (always num_vhcs entries, zero for absent VHCs), adjusted machine power.
struct VscSample {
  VhcComboMask combo = 0;
  std::vector<common::StateVector> vhc_states;
  double power_w = 0.0;
};

class VscTable {
 public:
  /// num_vhcs: size of the VHC universe; resolution: state quantization step
  /// (> 0, paper uses 0.01). Throws std::invalid_argument on bad parameters.
  explicit VscTable(std::size_t num_vhcs, double resolution = 0.01);

  [[nodiscard]] std::size_t num_vhcs() const noexcept { return num_vhcs_; }
  [[nodiscard]] double resolution() const noexcept { return resolution_; }

  /// Records one measurement. States are quantized on entry. Throws
  /// std::invalid_argument if vhc_states.size() != num_vhcs, the combo is 0
  /// or addresses VHCs beyond the universe, or power is negative.
  void record(VhcComboMask combo,
              std::span<const common::StateVector> vhc_states, double power_w);

  /// All samples recorded for a combo (empty vector if none).
  [[nodiscard]] const std::vector<VscSample>& samples(VhcComboMask combo) const;

  [[nodiscard]] std::size_t total_samples() const noexcept { return total_; }
  /// Combos that have at least one sample.
  [[nodiscard]] std::vector<VhcComboMask> combos() const;

 private:
  std::size_t num_vhcs_;
  double resolution_;
  std::unordered_map<VhcComboMask, std::vector<VscSample>> samples_;
  std::size_t total_ = 0;
};

}  // namespace vmp::core
