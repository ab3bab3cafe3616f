// Opt-in heap-allocation counters for the zero-allocation contract.
//
// The companion TU (alloc_count.cpp, built as the `jmb_alloc_count` static
// library) replaces the global operator new/delete with counting versions.
// Linking that library is what arms the instrument; this header only
// declares the control surface, so production binaries that never link
// `jmb_alloc_count` keep the stock allocator with zero overhead.
//
// Counting is off until enabled — either programmatically with
// set_alloc_counting(true) or by setting the JMB_COUNT_ALLOCS environment
// variable (checked once, at the first allocation) — so process startup
// and test-framework noise never pollute a measurement window.
#pragma once

#include <cstdint>

namespace jmb::obs {

/// Snapshot of the global allocation counters.
struct AllocCounts {
  std::uint64_t allocs = 0;    ///< operator new calls while counting was on
  std::uint64_t deallocs = 0;  ///< operator delete calls while counting was on
  std::uint64_t bytes = 0;     ///< total bytes requested while counting was on
};

/// Turn counting on/off. Thread-safe; affects all threads.
void set_alloc_counting(bool on);

/// Zero all counters.
void reset_alloc_counts();

/// Read the counters (racy snapshots are fine: each field is atomic).
[[nodiscard]] AllocCounts alloc_counts();

}  // namespace jmb::obs
