// rusage.hpp -- portable process resource readings.
//
// Two consumer-facing wrinkles live here, once, instead of being silently
// wrong in per-binary copies (BENCH_*.json "peak_rss_kb" fields, the roflsim
// run-summary line):
//   * getrusage's ru_maxrss is in kilobytes on Linux but in *bytes* on macOS
//     and the BSDs;
//   * Linux carries ru_maxrss across execve, so a process started from a
//     large launcher (a Python runner, a shell holding big buffers) would
//     report at least the launcher's peak.  /proc/self/status's VmHWM is the
//     peak of this image alone, so Linux reads that.
#pragma once

#include <sys/resource.h>

#include <cstdio>

namespace rofl::util {

/// Peak resident set size of this process image in KiB, on every platform.
inline long peak_rss_kb() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
    if (kb >= 0) return kb;
  }
#endif
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
#if defined(__APPLE__) || defined(__FreeBSD__) || defined(__NetBSD__) || \
    defined(__OpenBSD__) || defined(__DragonFly__)
  return u.ru_maxrss / 1024;  // bytes on macOS/BSD
#else
  return u.ru_maxrss;  // KiB on Linux
#endif
}

}  // namespace rofl::util
