#include "baselines/marginal.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace vmp::base {

MarginalContributionEstimator::MarginalContributionEstimator(
    const sim::CoalitionProbe& probe, std::vector<std::size_t> order)
    : probe_(probe), order_(std::move(order)) {
  if (order_.empty()) {
    order_.resize(probe.fleet_size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }
  if (order_.size() != probe.fleet_size())
    throw std::invalid_argument(
        "MarginalContributionEstimator: order size != fleet size");
  std::vector<std::size_t> sorted = order_;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (sorted[i] != i)
      throw std::invalid_argument(
          "MarginalContributionEstimator: order is not a permutation");
}

std::vector<double> MarginalContributionEstimator::estimate(
    std::span<const common::VmSample> vms, double adjusted_power_w) {
  (void)adjusted_power_w;  // efficiency holds by telescoping on the oracle.
  if (vms.size() != probe_.fleet_size())
    throw std::invalid_argument(
        "MarginalContributionEstimator: sample count != fleet size");

  std::vector<common::StateVector> states;
  states.reserve(vms.size());
  for (const common::VmSample& vm : vms) states.push_back(vm.state);

  std::vector<double> phi(vms.size(), 0.0);
  sim::CoalitionMask prefix = 0;
  double prev = 0.0;
  for (std::size_t player : order_) {
    prefix |= sim::CoalitionMask{1} << player;
    const double curr = probe_.worth(prefix, states);
    phi[player] = curr - prev;
    prev = curr;
  }
  return phi;
}

}  // namespace vmp::base
