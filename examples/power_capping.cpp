// Per-VM power capping — the management use case the paper's introduction
// motivates ("VM power measurement can effectively enable power caps to be
// enforced on a per-VM basis").
//
// A controller meters each VM with the Shapley estimator and, when a VM's
// share exceeds its cap, throttles that VM's CPU allocation (multiplicative
// decrease; gentle additive recovery when under cap) — the same shape as a
// hypervisor cap enforced through scheduler credits. The demo shows the
// aggressive VM being pushed to its cap while the compliant VM is untouched.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/capping.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

namespace {

/// Decorator that scales a workload's CPU demand by a controllable factor —
/// the actuation knob of the cap controller.
class ThrottledWorkload final : public wl::Workload {
 public:
  explicit ThrottledWorkload(wl::WorkloadPtr inner, double* factor)
      : inner_(std::move(inner)), factor_(factor) {}

  common::StateVector demand(double t) override {
    common::StateVector s = inner_->demand(t);
    s[common::Component::kCpu] *= std::clamp(*factor_, 0.0, 1.0);
    return s;
  }
  double power_intensity() const noexcept override {
    return inner_->power_intensity();
  }
  std::string_view name() const noexcept override { return "throttled"; }

 private:
  wl::WorkloadPtr inner_;
  double* factor_;  // owned by the controller below; outlives the VM.
};

}  // namespace

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {catalogue[3], catalogue[2]};

  core::CollectionOptions options;
  options.duration_s = 300.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(spec, fleet, options);

  sim::PhysicalMachine machine(spec, /*seed=*/11);
  // VM0: 8-vCPU instance running a hot fp code; capped at 60 W.
  // VM1: 4-vCPU instance running an int code; capped generously at 60 W.
  static double throttle0 = 1.0;
  static double throttle1 = 1.0;
  const sim::VmId vm0 = machine.hypervisor().create_vm(
      fleet[0], std::make_unique<ThrottledWorkload>(
                    wl::make_spec_workload(wl::SpecBenchmark::kNamd, 1), &throttle0));
  const sim::VmId vm1 = machine.hypervisor().create_vm(
      fleet[1], std::make_unique<ThrottledWorkload>(
                    wl::make_spec_workload(wl::SpecBenchmark::kSjeng, 2), &throttle1));
  machine.hypervisor().start_vm(vm0);
  machine.hypervisor().start_vm(vm1);

  core::PowerCapController controller;
  controller.set_cap(vm0, core::CapPolicy{.cap_w = 60.0});
  controller.set_cap(vm1, core::CapPolicy{.cap_w = 60.0});
  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);

  std::printf("%5s %10s %10s %10s %10s\n", "t(s)", "phi0 (W)", "thr0",
              "phi1 (W)", "thr1");
  for (int t = 1; t <= 120; ++t) {
    const sim::MeterFrame frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);

    // AIMD cap controller per VM (core/capping); write back the actuation.
    controller.observe(samples, phi);
    throttle0 = controller.throttle(vm0);
    throttle1 = controller.throttle(vm1);
    if (t % 10 == 0)
      std::printf("%5d %10.2f %10.2f %10.2f %10.2f\n", t, phi[0], throttle0,
                  phi[1], throttle1);
  }

  std::printf("\nVM0 (cap 60 W) converged to throttle %.2f after %zu "
              "violations; VM1 (cap 60 W)\nstayed at %.2f with %zu "
              "violations.\n",
              throttle0, controller.violations(vm0), throttle1,
              controller.violations(vm1));
  return 0;
}
