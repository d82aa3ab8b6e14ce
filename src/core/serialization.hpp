// Persistence of the offline artifacts (paper Fig. 8: the v(S, C) table is
// built once, stored, and consulted online ever after).
//
// Plain line-oriented text formats with a versioned magic header, so the
// files are diffable, greppable, and stable across library versions:
//
//   vmpower-vsc-table v1 num_vhcs=<r> resolution=<q>
//   <combo> <r x kNumComponents state values> <power_w>      (one per sample)
//
//   vmpower-vhc-approx v1 num_vhcs=<r>
//   <combo> <r x kNumComponents weights> <rmse> <sample_count>
//
// All load functions validate the header and throw std::runtime_error on
// malformed input: a count must be a whole unsigned number and an energy,
// duration or resolution a finite number, each with no trailing bytes.
// The table and approximation loaders read one row per line up to EOF; a
// row with a token that is not such a number, a combo that is 0 or names a
// VHC past num_vhcs, or too few or too many tokens, throws naming the file
// and its 1-based line.
// Billing state uses the same conventions, as *stream* blocks so composite
// checkpoints (the fleet engine's) can embed several accountants in one
// file:
//
//   vmpower-energy-accountant v1 policy=<p> seconds=<s> entries=<k>
//   <vm_id> <joules>                                          (k rows)
//
//   vmpower-multihost v1 entries=<e> unattributed=<j>
//   <tenant> <host> <joules>                                  (e rows)
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <limits>
#include <string_view>

#include "core/accountant.hpp"
#include "core/linear_approx.hpp"
#include "core/multi_host.hpp"
#include "core/vsc_table.hpp"

namespace vmp::core {

/// The value of the header token `key=value` as a whole number in
/// [0, max]: digits only, no sign, no trailing bytes. Throws
/// std::runtime_error naming `what` (the file kind), the key and the token.
[[nodiscard]] std::uint64_t header_count(
    std::string_view what, std::string_view token, std::string_view key,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The value of the header token `key=value` as a finite double with no
/// trailing bytes; throws like header_count.
[[nodiscard]] double header_finite(std::string_view what,
                                   std::string_view token,
                                   std::string_view key);

/// Writes the table; throws std::runtime_error on I/O failure.
void save_table(const VscTable& table, const std::filesystem::path& path);

/// Reads a table written by save_table.
[[nodiscard]] VscTable load_table(const std::filesystem::path& path);

/// Writes the fitted approximation; throws std::runtime_error on I/O failure.
void save_approximation(const VhcLinearApprox& approx,
                        const std::filesystem::path& path);

/// Reads an approximation written by save_approximation.
[[nodiscard]] VhcLinearApprox load_approximation(
    const std::filesystem::path& path);

/// Writes one accountant block to the stream (see format above).
void write_accountant(std::ostream& out, const EnergyAccountant& accountant);

/// Reads a block written by write_accountant; throws std::runtime_error on
/// malformed input.
[[nodiscard]] EnergyAccountant read_accountant(std::istream& in);

/// Writes the cross-host tenant ledger (energies only; bindings are
/// configuration, not ledger state).
void write_multi_host(std::ostream& out,
                      const MultiHostAccountant& accountant);

/// Restores the energies of `accountant` from a block written by
/// write_multi_host; throws std::runtime_error on malformed input.
void read_multi_host(std::istream& in, MultiHostAccountant& accountant);

}  // namespace vmp::core
