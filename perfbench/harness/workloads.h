// The benchmark's four workloads. Each is a fixed cycle of cases drawn
// from the seed; the harness repeats the cycle for the measured window.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "loop.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run every case of the cycle once, reporting each operation to `loop`.
  virtual void run_cycle(OpLoop& loop) = 0;
};

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace perfbench
