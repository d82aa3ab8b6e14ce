// Datacenter-scale billing: a three-host cluster, tenants spread across
// hosts, per-host Shapley disaggregation, cluster-wide tenant bills.
//
// This is the deployment the paper's introduction motivates: every host runs
// its own Fig. 8 pipeline (the games are independent — Additivity composes
// the results), a placement policy spreads tenant VMs across hosts, and the
// operator bills tenants for metered energy instead of flat instance-hours.
#include <cstdio>
#include <map>
#include <memory>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/multi_host.hpp"
#include "core/pricing.hpp"
#include "sim/cluster.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();

  // One offline campaign per host profile; all hosts are identical Xeons, so
  // a single trained dataset serves every host (the artifacts are per
  // machine *type*, not per machine).
  std::printf("== offline: training the shared host profile ==\n");
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const auto dataset = core::collect_offline_dataset(spec, catalogue, options);

  sim::Cluster cluster(sim::PlacementPolicy::kLeastLoaded);
  for (int h = 0; h < 3; ++h) cluster.add_host(spec, 100 + h);

  // Three tenants with mixed fleets; the placement policy decides hosts.
  struct Request {
    core::TenantId tenant;
    unsigned type_index;  // 1-based Table IV index
    wl::SpecBenchmark job;
  };
  const Request requests[] = {
      {1, 4, wl::SpecBenchmark::kNamd},  {1, 2, wl::SpecBenchmark::kGcc},
      {2, 3, wl::SpecBenchmark::kWrf},   {2, 1, wl::SpecBenchmark::kSjeng},
      {2, 1, wl::SpecBenchmark::kGobmk}, {3, 4, wl::SpecBenchmark::kTonto},
      {3, 3, wl::SpecBenchmark::kOmnetpp}};

  core::MultiHostAccountant accountant;
  std::map<core::TenantId, int> vm_counts;
  std::uint64_t seed = 9000;
  for (const Request& request : requests) {
    const auto location =
        cluster.launch(common::paper_vm_type(request.type_index),
                       wl::make_spec_workload(request.job, ++seed));
    accountant.bind(static_cast<core::HostId>(location.host), location.vm,
                    request.tenant);
    ++vm_counts[request.tenant];
    std::printf("   tenant %u: %s running %-8s -> host %zu (vm %u)\n",
                request.tenant,
                common::paper_vm_type(request.type_index).type_name.c_str(),
                to_string(request.job), location.host, location.vm);
  }

  // One estimator per host (they share the trained artifacts).
  std::vector<core::ShapleyVhcEstimator> estimators;
  estimators.reserve(cluster.host_count());
  for (std::size_t h = 0; h < cluster.host_count(); ++h)
    estimators.emplace_back(dataset.universe, dataset.approximation);

  std::printf("== online: metering the cluster for 10 minutes ==\n");
  for (int t = 0; t < 600; ++t) {
    const auto frames = cluster.step(1.0);
    for (std::size_t h = 0; h < cluster.host_count(); ++h) {
      const auto samples = cluster.host(h).hypervisor().observations();
      if (samples.empty()) continue;
      const double adjusted = sim::adjusted_power_w(
          frames[h].active_power_w, cluster.host(h).idle_power_w());
      const auto phi = estimators[h].estimate(samples, adjusted);
      accountant.add_host_sample(static_cast<core::HostId>(h), samples, phi,
                                 1.0);
    }
  }

  util::print_banner("cluster bill (10 minutes, US tariff)");
  util::TablePrinter table({"tenant", "VMs", "energy (kWh)", "cost (USD)"});
  for (const core::TenantId tenant : accountant.tenants()) {
    const double kwh = common::joules_to_kwh(accountant.tenant_energy_j(tenant));
    table.add_row({std::to_string(tenant),
                   std::to_string(vm_counts[tenant]),
                   util::TablePrinter::num(kwh, 5),
                   util::TablePrinter::num(kwh * core::kUsTariffUsdPerKwh, 5)});
  }
  table.print();
  std::printf("total attributed: %.5f kWh across %zu hosts (true cluster draw "
              "%.1f W at t_end)\n",
              common::joules_to_kwh(accountant.total_energy_j()),
              cluster.host_count(), cluster.total_true_power_w());
  return 0;
}
