// Seeded mutation for the hostile-input tests: deterministic edits of valid
// inputs (binary frames, text lines, shard-map specs), so a failing case
// replays from the test's seed and the case index alone.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <string_view>

namespace vmp::test {

/// Mutated inputs per input class.
inline constexpr int kMutationCases = 20000;

/// One byte: any byte when `alphabet` is empty, else one of its bytes.
inline char draw_byte(std::mt19937_64& rng, std::string_view alphabet) {
  if (alphabet.empty()) return static_cast<char>(rng() & 0xff);
  return alphabet[rng() % alphabet.size()];
}

/// One seeded edit of `bytes`: overwrite, insert or erase a run of 1–8
/// bytes drawn from `alphabet`, or truncate. The fifth edit flips one bit
/// when the alphabet is empty (binary input) and otherwise inserts a run of
/// 20–40 digits, which overflows any 64-bit field it lands in.
inline void mutate(std::string& bytes, std::mt19937_64& rng,
                   std::string_view alphabet) {
  const std::size_t at = rng() % (bytes.size() + 1);
  const std::size_t run = 1 + rng() % 8;
  switch (rng() % 5) {
    case 0:
      for (std::size_t i = at; i < bytes.size() && i < at + run; ++i)
        bytes[i] = draw_byte(rng, alphabet);
      break;
    case 1:
      for (std::size_t i = 0; i < run; ++i)
        bytes.insert(at, 1, draw_byte(rng, alphabet));
      break;
    case 2:
      bytes.erase(at, run);
      break;
    case 3:
      bytes.resize(at);
      break;
    default:
      if (alphabet.empty()) {
        if (!bytes.empty())
          bytes[at % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
      } else {
        std::string digits(20 + rng() % 21, '0');
        for (char& digit : digits) digit = static_cast<char>('0' + rng() % 10);
        bytes.insert(at, digits);
      }
  }
}

}  // namespace vmp::test
