#include "core/multi_host.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vmp::core {
namespace {

using common::StateVector;
using common::VmSample;

std::vector<VmSample> host_vms(std::initializer_list<std::uint32_t> ids) {
  std::vector<VmSample> out;
  for (std::uint32_t id : ids)
    out.push_back({id, 0, StateVector::cpu_only(0.5)});
  return out;
}

TEST(MultiHost, BindAndQueryOwnership) {
  MultiHostAccountant acc;
  acc.bind(0, 5, 101);
  EXPECT_TRUE(acc.is_bound(0, 5));
  EXPECT_FALSE(acc.is_bound(1, 5));  // bindings are per host
  EXPECT_EQ(acc.owner_of(0, 5), 101u);
  EXPECT_THROW(acc.owner_of(1, 5), std::out_of_range);
}

TEST(MultiHost, RebindSameTenantIsIdempotent) {
  MultiHostAccountant acc;
  acc.bind(0, 5, 101);
  EXPECT_NO_THROW(acc.bind(0, 5, 101));
  EXPECT_THROW(acc.bind(0, 5, 202), std::invalid_argument);
}

TEST(MultiHost, AdditivityAcrossHosts) {
  // The defining property: tenant total = sum of per-host shares.
  MultiHostAccountant acc;
  acc.bind(0, 1, 101);  // compute VM
  acc.bind(1, 7, 101);  // logical disk on the storage host
  acc.add_host_sample(0, host_vms({1}), std::vector<double>{40.0}, 10.0);
  acc.add_host_sample(1, host_vms({7}), std::vector<double>{25.0}, 10.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_on_host_j(101, 0), 400.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_on_host_j(101, 1), 250.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_j(101), 650.0);
}

TEST(MultiHost, UnboundVmsGoToUnattributedBucket) {
  MultiHostAccountant acc;
  acc.bind(0, 1, 101);
  acc.add_host_sample(0, host_vms({1, 2}), std::vector<double>{10.0, 5.0}, 2.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_j(101), 20.0);
  EXPECT_DOUBLE_EQ(acc.unattributed_energy_j(), 10.0);
  EXPECT_DOUBLE_EQ(acc.total_energy_j(), 30.0);
}

TEST(MultiHost, SameVmIdOnDifferentHostsIsDistinct) {
  MultiHostAccountant acc;
  acc.bind(0, 9, 101);
  acc.bind(1, 9, 202);
  acc.add_host_sample(0, host_vms({9}), std::vector<double>{10.0}, 1.0);
  acc.add_host_sample(1, host_vms({9}), std::vector<double>{20.0}, 1.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_j(101), 10.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_j(202), 20.0);
}

TEST(MultiHost, TenantsListedAscending) {
  MultiHostAccountant acc;
  acc.bind(0, 1, 300);
  acc.bind(0, 2, 100);
  acc.add_host_sample(0, host_vms({1, 2}), std::vector<double>{1.0, 1.0}, 1.0);
  const auto tenants = acc.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0], 100u);
  EXPECT_EQ(tenants[1], 300u);
}

TEST(MultiHost, UnknownTenantHasZeroEnergy) {
  const MultiHostAccountant acc;
  EXPECT_DOUBLE_EQ(acc.tenant_energy_j(999), 0.0);
  EXPECT_DOUBLE_EQ(acc.tenant_energy_on_host_j(999, 0), 0.0);
}

TEST(MultiHost, Validation) {
  MultiHostAccountant acc;
  const auto vms = host_vms({1});
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(acc.add_host_sample(0, vms, wrong, 1.0), std::invalid_argument);
  const std::vector<double> phi = {1.0};
  EXPECT_THROW(acc.add_host_sample(0, vms, phi, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::core
