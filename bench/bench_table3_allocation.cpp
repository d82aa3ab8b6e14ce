// Reproduces Table III (and Fig. 6): comparison of allocation mechanisms for
// the two identical fully-loaded VMs of Fig. 4(b).
//
// Paper: marginal contribution gives 13 W / 7 W (efficient, unfair); the
// power model gives 13 W / 13 W (fair, inefficient); the ideal — and the
// Shapley value — gives 10 W / 10 W (both).
#include <cstdio>
#include <numeric>

#include "baselines/marginal.hpp"
#include "baselines/power_model.hpp"
#include "common/vm_config.hpp"
#include "core/axioms.hpp"
#include "core/shapley.hpp"
#include "sim/coalition_probe.hpp"
#include "util/table.hpp"

using namespace vmp;

int main() {
  // The measured game of Fig. 4(b)/Fig. 6 on the packed Xeon.
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.pack_affinity = 1.0;  // siblings co-scheduled, as measured in Fig. 4
  const std::vector<common::VmConfig> fleet = {common::demo_c_vm(),
                                               common::demo_c_vm()};
  const sim::CoalitionProbe probe(spec, fleet);
  const std::vector<common::StateVector> states(
      2, common::StateVector::cpu_only(1.0));
  const double measured = probe.worth(0b11, states);

  util::print_banner("Fig. 6: marginal power contributions of the two VMs");
  std::printf("v({C_VM})        = %6.2f W\n", probe.worth(0b01, states));
  std::printf("v({C_VM'})       = %6.2f W\n", probe.worth(0b10, states));
  std::printf("v({C_VM,C_VM'})  = %6.2f W\n", measured);
  std::printf("marginal of the late joiner: %6.2f W\n",
              measured - probe.worth(0b01, states));

  // The three allocation mechanisms.
  base::MarginalContributionEstimator marginal(probe);
  std::vector<base::VmPowerModel> models(1);
  models[0].type = fleet[0].type_id;
  models[0].type_name = fleet[0].type_name;
  models[0].weights = {probe.worth(0b01, states), 0.0, 0.0, 0.0};
  base::PowerModelEstimator power_model(models);

  const std::vector<common::VmSample> samples = {
      {0, fleet[0].type_id, states[0]}, {1, fleet[1].type_id, states[1]}};
  const auto phi_marginal = marginal.estimate(samples, measured);
  const auto phi_model = power_model.estimate(samples, measured);
  const auto phi_shapley = core::nondet_shapley_values(
      states, [&](core::Coalition s, std::span<const common::StateVector> c) {
        return probe.worth(s.mask(), c);
      });

  const core::WorthFn game = [&](core::Coalition s) {
    return probe.worth(s.mask(), states);
  };
  const auto verdicts = [&](std::span<const double> phi) {
    const auto report = core::evaluate_axioms(2, game, phi, 0.05);
    return std::pair<std::string, std::string>(
        report.efficiency ? "yes" : "NO", report.symmetry ? "yes" : "NO");
  };

  util::print_banner(
      "Table III: power allocation mechanisms for two identical VMs");
  util::TablePrinter table({"Allocation Mechanism", "C_VM", "C_VM'", "sum",
                            "measured", "macro-accuracy", "fairness"});
  const struct {
    const char* name;
    std::span<const double> phi;
  } rows[] = {
      {"Marginal Contribution", phi_marginal},
      {"Power Model", phi_model},
      {"Shapley Value (ours)", phi_shapley},
  };
  for (const auto& row : rows) {
    const double sum = std::accumulate(row.phi.begin(), row.phi.end(), 0.0);
    const auto [eff, fair] = verdicts(row.phi);
    table.add_row({row.name, util::TablePrinter::num(row.phi[0], 2) + " W",
                   util::TablePrinter::num(row.phi[1], 2) + " W",
                   util::TablePrinter::num(sum, 2) + " W",
                   util::TablePrinter::num(measured, 2) + " W", eff, fair});
  }
  table.print();
  std::printf("\npaper: marginal 13/7 (accurate, unfair); power model 13/13 "
              "(fair, inaccurate);\nideal 10/10. Shapley value achieves the "
              "ideal allocation.\n");
  return 0;
}
