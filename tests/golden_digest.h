// Golden-digest helpers shared by the test suites: an FNV-1a digest that
// hashes doubles by bit pattern, and a table check whose failure message
// prints the table line that would pin the observed digest.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "dsp/types.h"

namespace jmb::golden {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  /// Length, then every element.
  void add(const rvec& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const double x : v) add(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

using GoldenTable = std::map<std::string, std::uint64_t>;

/// Compares each case against the table; a mismatch prints the table line
/// that would pin the observed digest.
inline void expect_golden(const GoldenTable& want, const std::string& name,
                          std::uint64_t got) {
  const auto it = want.find(name);
  char line[96];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},", name.c_str(),
                static_cast<unsigned long long>(got));
  if (it == want.end()) {
    ADD_FAILURE() << "no golden digest for " << line;
  } else {
    EXPECT_EQ(it->second, got) << line;
  }
}

}  // namespace jmb::golden
