# bench_compare self-test: two exports of the same (bench, seed) must
# PASS the comparison (physics byte-identical is the repo's determinism
# contract), and a tampered candidate must FAIL with exit 1. Runs the
# comparison both without and with a timing tolerance, so the timing
# structural checks get coverage without depending on wall-clock noise.
#
# The checked-in BENCH_baseline.json is intentionally NOT compared here:
# cross-compiler FP divergence would make that flaky in the {gcc,clang}
# test matrix. The baseline comparisons are the baseline_* tests
# (cmake/baseline_compare.cmake), registered for gcc on x86-64 only.
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<exe> -DCOMPARE=<bench_compare exe> -DSEED=<n>
#         -DOUT1=<path> -DOUT2=<path> -P bench_compare.cmake
foreach(var BENCH COMPARE SEED OUT1 OUT2)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_compare.cmake: missing -D${var}=...")
  endif()
endforeach()

foreach(out "${OUT1}" "${OUT2}")
  execute_process(
    COMMAND "${BENCH}" "${SEED}" "--metrics-out=${out}"
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET)
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR "bench '${BENCH}' exited with ${bench_rc}")
  endif()
endforeach()

execute_process(
  COMMAND "${COMPARE}" "${OUT1}" "${OUT2}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "self-comparison failed (${rc}): determinism broken?")
endif()

# A huge tolerance keeps this leg deterministic while still exercising
# the timing count/order/structure checks.
execute_process(
  COMMAND "${COMPARE}" "${OUT1}" "${OUT2}" --timing-tol=1e9
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "self-comparison with timing failed (${rc})")
endif()

# Fail path: corrupt every metric value in the candidate; the physics
# byte-compare must notice and exit 1 (not 0, not a usage error, and not
# the structural exit 3 — the shape is untouched).
file(READ "${OUT2}" text)
string(REGEX REPLACE "\"value\":([0-9])" "\"value\":9\\1" text "${text}")
file(WRITE "${OUT2}.tampered" "${text}")
execute_process(
  COMMAND "${COMPARE}" "${OUT1}" "${OUT2}.tampered"
  RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "tampered comparison exited ${rc}, expected 1: mismatch not detected")
endif()

# Structural path: a different "figure" header means the artifacts are
# not the same experiment — exit 3 (regenerate the baseline), distinct
# from the physics-value exit 1.
file(READ "${OUT2}" text)
string(REPLACE "\"figure\":\"" "\"figure\":\"not-" text "${text}")
file(WRITE "${OUT2}.drifted" "${text}")
execute_process(
  COMMAND "${COMPARE}" "${OUT1}" "${OUT2}.drifted"
  RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR
    "drifted comparison exited ${rc}, expected 3: structural drift not "
    "classified")
endif()
