#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;

class SerializationTest : public ::testing::Test {
 protected:
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      ("vmp_serial_" + std::to_string(::getpid()) + ".dat");

  void TearDown() override { std::filesystem::remove(path_); }

  static VscTable sample_table() {
    VscTable table(2, 0.01);
    util::Rng rng(3);
    for (int k = 0; k < 50; ++k) {
      const double c0 = rng.uniform(0.0, 2.0);
      const double c1 = rng.uniform(0.0, 1.0);
      StateVector s0 = StateVector::cpu_only(c0);
      s0[common::Component::kMemory] = rng.uniform();
      table.record(0b01, {{s0, StateVector::zero()}}, 13.0 * c0);
      table.record(0b11,
                   {{StateVector::cpu_only(c0), StateVector::cpu_only(c1)}},
                   13.0 * c0 + 24.0 * c1);
    }
    return table;
  }
};

TEST_F(SerializationTest, TableRoundTrip) {
  const VscTable original = sample_table();
  save_table(original, path_);
  const VscTable loaded = load_table(path_);

  EXPECT_EQ(loaded.num_vhcs(), original.num_vhcs());
  EXPECT_DOUBLE_EQ(loaded.resolution(), original.resolution());
  EXPECT_EQ(loaded.total_samples(), original.total_samples());
  for (const VhcComboMask combo : original.combos()) {
    const auto& a = original.samples(combo);
    const auto& b = loaded.samples(combo);
    ASSERT_EQ(a.size(), b.size()) << "combo " << combo;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k].power_w, b[k].power_w, 1e-9);
      for (std::size_t j = 0; j < original.num_vhcs(); ++j)
        EXPECT_NEAR(a[k].vhc_states[j].max_abs_diff(b[k].vhc_states[j]), 0.0,
                    1e-9);
    }
  }
}

TEST_F(SerializationTest, ApproximationRoundTripPredictsIdentically) {
  const VscTable table = sample_table();
  const auto original = VhcLinearApprox::fit(table);
  save_approximation(original, path_);
  const auto loaded = load_approximation(path_);

  EXPECT_EQ(loaded.num_vhcs(), original.num_vhcs());
  EXPECT_EQ(loaded.fitted_combos(), original.fitted_combos());
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<StateVector> states = {
        StateVector::cpu_only(rng.uniform(0.0, 2.0)),
        StateVector::cpu_only(rng.uniform(0.0, 1.0))};
    for (const VhcComboMask combo : original.fitted_combos())
      EXPECT_NEAR(loaded.predict(combo, states),
                  original.predict(combo, states), 1e-9);
  }
  for (const VhcComboMask combo : original.fitted_combos()) {
    EXPECT_NEAR(loaded.fit_rmse(combo), original.fit_rmse(combo), 1e-9);
  }
}

TEST_F(SerializationTest, TrainedFromLoadedTableMatchesDirectFit) {
  const VscTable table = sample_table();
  save_table(table, path_);
  const auto from_disk = VhcLinearApprox::fit(load_table(path_));
  const auto direct = VhcLinearApprox::fit(table);
  for (const VhcComboMask combo : direct.fitted_combos()) {
    const auto a = direct.weights(combo);
    const auto b = from_disk.weights(combo);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST_F(SerializationTest, BadMagicRejected) {
  {
    std::ofstream out(path_);
    out << "not-a-vmpower-file v9 num_vhcs=2 resolution=0.01\n";
  }
  EXPECT_THROW(load_table(path_), std::runtime_error);
  EXPECT_THROW(load_approximation(path_), std::runtime_error);
}

TEST_F(SerializationTest, TruncatedRowRejected) {
  {
    std::ofstream out(path_);
    out << "vmpower-vsc-table v1 num_vhcs=2 resolution=0.01\n";
    out << "1 0.5 0 0 0\n";  // missing the second VHC's state and power
  }
  EXPECT_THROW(load_table(path_), std::runtime_error);
}

TEST_F(SerializationTest, EveryRowIsReadOrTheLoadNamesItsLine) {
  // Both loaders once stopped at the first row that did not start with a
  // number and returned what came before it: a junk row in the middle
  // dropped the rows after it, one after the last row went unnoticed.
  const auto read_lines = [&] {
    std::ifstream in(path_);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  const auto write_lines = [&](const std::vector<std::string>& lines) {
    std::ofstream out(path_, std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  };
  const auto rejects_line = [&](const std::vector<std::string>& lines,
                                std::size_t line_no, const auto& load) {
    write_lines(lines);
    try {
      load();
      ADD_FAILURE() << "line " << line_no << " was accepted";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path_.string() + " line " +
                          std::to_string(line_no) + ":"),
                std::string::npos)
          << what;
    }
  };
  const VscTable table = sample_table();
  const auto check = [&](const auto& load) {
    const std::vector<std::string> saved = read_lines();
    ASSERT_GT(saved.size(), 2u);
    // Line 1 is the header; a junk row in the middle and after the last.
    auto lines = saved;
    lines[1] = "x" + lines[1];
    rejects_line(lines, 2, load);
    lines = saved;
    lines.insert(lines.begin() + 2, "junk");
    rejects_line(lines, 3, load);
    lines = saved;
    lines.push_back("junk");
    rejects_line(lines, saved.size() + 1, load);
    // A row one token long or short, a signed combo, a non-finite value.
    for (const std::string& row :
         {saved[1] + " 7", saved[1].substr(0, saved[1].rfind(' ')),
          "-" + saved[1], saved[1].substr(0, saved[1].rfind(' ')) + " nan"}) {
      lines = saved;
      lines.push_back(row);
      rejects_line(lines, saved.size() + 1, load);
    }
    // Blank lines are not rows.
    lines = saved;
    lines.insert(lines.begin() + 1, "  ");
    lines.push_back("");
    write_lines(lines);
    EXPECT_NO_THROW(load());
  };
  save_table(table, path_);
  check([&] { (void)load_table(path_); });
  save_approximation(VhcLinearApprox::fit(table), path_);
  check([&] { (void)load_approximation(path_); });
}

TEST_F(SerializationTest, RowCombosAreNonEmptySetsOfTheVhcs) {
  // Combo 0 holds no VHC and combo 0b10 names a VHC past num_vhcs=1; both
  // loaders once accepted the first as a sample or a model.
  const auto rejects_line_3 = [&](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "line 3 was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find(path_.string() + " line 3: combo "),
                std::string::npos)
          << error.what();
    }
  };
  for (const char* combo : {"0", "2"}) {
    {
      std::ofstream out(path_);
      out << "vmpower-vsc-table v1 num_vhcs=1 resolution=0.01\n";
      out << "1 0.5 0 0 0 6.5\n";
      out << combo << " 0.5 0 0 0 6.5\n";
    }
    rejects_line_3([&] { (void)load_table(path_); });
    {
      std::ofstream out(path_);
      out << "vmpower-vhc-approx v1 num_vhcs=1\n";
      out << "1 10 0 0 0 0.1 5\n";
      out << combo << " 10 0 0 0 0.1 5\n";
    }
    rejects_line_3([&] { (void)load_approximation(path_); });
  }
}

TEST_F(SerializationTest, HeaderValuesParseStrictly) {
  // Counts are whole unsigned numbers and resolutions, energies and seconds
  // finite, with no trailing bytes; the error names the key and the token.
  const auto rejects = [](const std::string& token, const auto& load) {
    try {
      load();
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("'" + token + "'"),
                std::string::npos)
          << error.what();
    }
  };
  for (const std::string token :
       {"num_vhcs=2x", "num_vhcs=-1", "num_vhcs=17", "num_vhcs=+2"}) {
    {
      std::ofstream out(path_);
      out << "vmpower-vsc-table v1 " << token << " resolution=0.01\n";
    }
    rejects(token, [&] { (void)load_table(path_); });
    {
      std::ofstream out(path_);
      out << "vmpower-vhc-approx v1 " << token << "\n";
    }
    rejects(token, [&] { (void)load_approximation(path_); });
  }
  for (const std::string token :
       {"resolution=inf", "resolution=nan", "resolution=0.01junk"}) {
    {
      std::ofstream out(path_);
      out << "vmpower-vsc-table v1 num_vhcs=2 " << token << "\n";
    }
    rejects(token, [&] { (void)load_table(path_); });
  }

  const auto read_block = [](const std::string& text) {
    std::istringstream in(text);
    return read_accountant(in);
  };
  for (const auto& [header, token] :
       std::vector<std::pair<std::string, std::string>>{
           {"policy=0 seconds=nan entries=0", "seconds=nan"},
           {"policy=0 seconds=inf entries=0", "seconds=inf"},
           {"policy=0 seconds=1 entries=-1", "entries=-1"},
           {"policy=0 seconds=1 entries=1e3", "entries=1e3"},
           {"policy=-1 seconds=1 entries=0", "policy=-1"},
           {"policy=3 seconds=1 entries=0", "policy=3"}})
    rejects(token, [&] {
      (void)read_block("vmpower-energy-accountant v1 " + header + "\n");
    });
  // A count the rows do not back is truncation, not one huge allocation.
  EXPECT_THROW(read_block("vmpower-energy-accountant v1 policy=0 seconds=1 "
                          "entries=1000000000000\n7 1.5\n"),
               std::runtime_error);
  const EnergyAccountant restored = read_block(
      "vmpower-energy-accountant v1 policy=2 seconds=12.5 entries=1\n"
      "7 3.25\n");
  EXPECT_EQ(restored.policy(), IdleAttribution::kProportional);
  EXPECT_EQ(restored.accounted_seconds(), 12.5);
  EXPECT_EQ(restored.energy_j(7), 3.25);

  for (const auto& [header, token] :
       std::vector<std::pair<std::string, std::string>>{
           {"entries=-1 unattributed=0", "entries=-1"},
           {"entries=0 unattributed=inf", "unattributed=inf"},
           {"entries=0 unattributed=1.5x", "unattributed=1.5x"}})
    rejects(token, [&] {
      std::istringstream in("vmpower-multihost v1 " + header + "\n");
      MultiHostAccountant accountant;
      read_multi_host(in, accountant);
    });
}

TEST_F(SerializationTest, MissingFileRejected) {
  EXPECT_THROW(load_table(path_.string() + ".nope"), std::runtime_error);
  EXPECT_THROW(load_approximation(path_.string() + ".nope"),
               std::runtime_error);
}

TEST(FromModels, Validation) {
  VhcLinearApprox::ComboModelData ok{
      0b1, std::vector<double>(common::kNumComponents, 1.0), 0.0, 10};
  EXPECT_NO_THROW(VhcLinearApprox::from_models(1, {{ok}}));
  // Wrong weight vector length.
  VhcLinearApprox::ComboModelData bad = ok;
  bad.weights.pop_back();
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{bad}}), std::invalid_argument);
  // Combo beyond the universe.
  bad = ok;
  bad.combo = 0b10;
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{bad}}), std::invalid_argument);
  // Combo 0 holds no VHC.
  bad = ok;
  bad.combo = 0;
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{bad}}), std::invalid_argument);
  // Duplicate combos.
  EXPECT_THROW(VhcLinearApprox::from_models(1, {{ok, ok}}),
               std::invalid_argument);
  // Empty model set / bad universe size.
  EXPECT_THROW(VhcLinearApprox::from_models(1, {}), std::invalid_argument);
  EXPECT_THROW(VhcLinearApprox::from_models(0, {{ok}}), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::core
