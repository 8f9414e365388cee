#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic clock reading in nanoseconds; every timestamp of the benchmark
/// (client samples, decorator spans, setup phases) uses it.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
