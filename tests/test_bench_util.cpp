// Strict seed/count parsing behind bench_util.h: strtoull alone accepts
// leading whitespace, signs, and trailing garbage, and silently wraps
// "-1" to 2^64-1 — engine::parse_u64_strict must reject all of that, and
// the *_or_die wrappers must exit(2) with a usage message instead of
// running a whole figure sweep on a garbled seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>

#include "bench_util.h"

namespace jmb::bench {
namespace {

TEST(ParseU64, AcceptsPlainDecimal) {
  std::uint64_t v = 99;
  ASSERT_TRUE(engine::parse_u64_strict("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(engine::parse_u64_strict("42", v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(engine::parse_u64_strict("18446744073709551615", v));  // 2^64 - 1
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsTrailingGarbage) {
  std::uint64_t v = 99;
  EXPECT_FALSE(engine::parse_u64_strict("5x", v));
  EXPECT_FALSE(engine::parse_u64_strict("5 ", v));
  EXPECT_FALSE(engine::parse_u64_strict("12.0", v));
  EXPECT_FALSE(engine::parse_u64_strict("1e3", v));
  EXPECT_EQ(v, 99u);  // failed parses leave the output untouched
}

TEST(ParseU64, RejectsSignsWhitespaceAndEmpty) {
  std::uint64_t v = 99;
  EXPECT_FALSE(engine::parse_u64_strict(nullptr, v));
  EXPECT_FALSE(engine::parse_u64_strict("", v));
  EXPECT_FALSE(engine::parse_u64_strict(" 5", v));
  EXPECT_FALSE(engine::parse_u64_strict("+5", v));
  // The strtoull 2^64-1 wrap case.
  EXPECT_FALSE(engine::parse_u64_strict("-1", v));
  EXPECT_FALSE(engine::parse_u64_strict("0x10", v));
  EXPECT_EQ(v, 99u);
}

TEST(ParseU64, RejectsOverflow) {
  std::uint64_t v = 99;
  EXPECT_FALSE(engine::parse_u64_strict("18446744073709551616", v));  // 2^64
  EXPECT_FALSE(engine::parse_u64_strict("99999999999999999999999", v));
  EXPECT_EQ(v, 99u);
}

using BenchUtilDeathTest = ::testing::Test;

TEST(BenchUtilDeathTest, SeedOrDieExitsWithUsageOnGarbage) {
  EXPECT_EXIT(parse_seed_or_die("7fff", "argv[1]", "fig07"),
              ::testing::ExitedWithCode(2), "invalid seed '7fff'");
  EXPECT_EXIT(parse_seed_or_die("-3", "JMB_SEED", "fig07"),
              ::testing::ExitedWithCode(2), "usage: fig07");
}

TEST(BenchUtilDeathTest, SeedOrDieReturnsParsedValue) {
  EXPECT_EQ(parse_seed_or_die("123", "argv[1]", "fig07"), 123u);
}

TEST(BenchUtilDeathTest, CountOrDieExitsOnGarbage) {
  EXPECT_EXIT(parse_count_or_die("8q", "client count", "conference_room"),
              ::testing::ExitedWithCode(2), "invalid client count '8q'");
  EXPECT_EQ(parse_count_or_die("8", "client count", "conference_room"), 8u);
}

TEST(BenchUtilDeathTest, SeedFromRejectsBadArgvAndEnv) {
  {
    char a0[] = "bench";
    char a1[] = "5x";
    char* argv[] = {a0, a1, nullptr};
    EXPECT_EXIT(seed_from(2, argv), ::testing::ExitedWithCode(2),
                "invalid seed '5x' \\(from argv\\[1\\]\\)");
  }
  {
    char a0[] = "bench";
    char* argv[] = {a0, nullptr};
    ASSERT_EQ(setenv("JMB_SEED", "abc", 1), 0);
    EXPECT_EXIT(seed_from(1, argv), ::testing::ExitedWithCode(2),
                "invalid seed 'abc' \\(from JMB_SEED\\)");
    ASSERT_EQ(setenv("JMB_SEED", "77", 1), 0);
    EXPECT_EQ(seed_from(1, argv), 77u);
    ASSERT_EQ(unsetenv("JMB_SEED"), 0);
    EXPECT_EQ(seed_from(1, argv), 1u);  // documented default
  }
}

}  // namespace
}  // namespace jmb::bench
