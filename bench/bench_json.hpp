// The Release-only rule for the BENCH_*.json blobs that benches write with
// --json PATH.
//
// Timings from other build types are not comparable with the recorded
// Release numbers, so a bench asked for --json refuses to run, and writes no
// file, unless it was compiled as Release. bench/CMakeLists.txt passes the
// build type in as VMPOWER_BUILD_TYPE; the blob records it as "build_type".
#pragma once

#include <cstdio>
#include <string_view>

namespace vmp::bench {

inline constexpr const char* kBuildType = VMPOWER_BUILD_TYPE;

/// True when no JSON was asked for or the build is Release; otherwise says
/// why on stderr and returns false.
inline bool json_allowed(const char* json_path) {
  if (json_path == nullptr || std::string_view(kBuildType) == "Release")
    return true;
  std::fprintf(stderr,
               "--json %s refused: this bench was built as '%s'; BENCH JSON "
               "needs -DCMAKE_BUILD_TYPE=Release\n",
               json_path, kBuildType);
  return false;
}

}  // namespace vmp::bench
