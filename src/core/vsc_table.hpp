// The v(S, C) table of the paper's framework (Fig. 8).
//
// During offline data collection the prototype stores, per VHC combination,
// the partially-measured (aggregated state, adjusted power) pairs at a fixed
// state-normalization resolution (0.01 in the paper's setup). The online path
// looks samples up by quantized state and falls back to the linear
// approximation for unobserved states.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
  /// std::invalid_argument if vhc_states.size() != num_vhcs, the combo
  /// addresses VHCs beyond the universe, or power is negative.
  void record(VhcComboMask combo,
              std::span<const common::StateVector> vhc_states, double power_w);

  /// All samples recorded for a combo (empty vector if none).
  [[nodiscard]] const std::vector<VscSample>& samples(VhcComboMask combo) const;

  /// Mean measured power, summed in record order, over the samples whose
  /// quantized state matches the query's exactly (same round(v / resolution)
  /// in every coordinate of every VHC); nullopt when the state was never
  /// observed (the case the linear approximation exists for). One hash
  /// probe on the metering hot path: no allocation, no scan of the samples.
  /// States are expected finite.
  [[nodiscard]] std::optional<double> lookup(
      VhcComboMask combo, std::span<const common::StateVector> vhc_states) const;

  [[nodiscard]] std::size_t total_samples() const noexcept { return total_; }
  /// Combos that have at least one sample.
  [[nodiscard]] std::vector<VhcComboMask> combos() const;

 private:
  /// The samples of one (combo, quantized state) cell, accumulated in
  /// record order.
  struct Cell {
    double power_sum = 0.0;
    std::size_t count = 0;
  };
  /// Hashes a cell key: the combo's bytes, then round(v / resolution) of
  /// every coordinate of every VHC state.
  struct KeyHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::size_t num_vhcs_;
  double resolution_;
  std::unordered_map<VhcComboMask, std::vector<VscSample>> samples_;
  std::unordered_map<std::string, Cell, KeyHash, std::equal_to<>> cells_;
  std::size_t total_ = 0;

  void validate_query(VhcComboMask combo,
                      std::span<const common::StateVector> vhc_states) const;
};

}  // namespace vmp::core
