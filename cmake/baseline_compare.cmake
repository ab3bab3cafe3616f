# Pinned physics: rerun one bench with the seed and arguments its
# baseline was generated with and diff its export against the checked-in
# BENCH_*baseline.json with bench_compare (exit 0 = byte-identical
# physics; 1 = a physics value changed; 3 = the artifact's shape drifted).
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<exe> -DARGS=<arg;...> -DCOMPARE=<bench_compare exe>
#         -DBASELINE=<BENCH_*baseline.json> -DOUT=<path> -P baseline_compare.cmake
foreach(var BENCH ARGS COMPARE BASELINE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_compare.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH}" ${ARGS} "--metrics-out=${OUT}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench '${BENCH}' exited with ${bench_rc}")
endif()

execute_process(
  COMMAND "${COMPARE}" "${BASELINE}" "${OUT}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BASELINE}: bench_compare exited ${rc}:\n${err}")
endif()
