# Export parity across environments: run one bench twice with the same
# seed under two environment/argument sets and require byte-identical
# --metrics-out artifacts. Used to prove that a knob which must not change
# physics (e.g. JMB_PRECODER=zf vs unset) really leaves it untouched.
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<bench exe> -DSEED=<decimal seed>
#         -DOUT1=<artifact> -DOUT2=<artifact>
#         [-DENV1=<;-separated VAR=VAL>] [-DENV2=...]
#         [-DARGS1=<;-separated bench args>] [-DARGS2=...]
#         -P env_parity.cmake
#
# Physics-only export (no --metrics-timing): wall-clock metrics
# legitimately vary between runs; the physics and the export bytes that
# carry it must not.
foreach(var BENCH SEED OUT1 OUT2)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "env_parity.cmake: missing -D${var}=...")
  endif()
endforeach()
foreach(var ENV1 ENV2 ARGS1 ARGS2)
  if(NOT DEFINED ${var})
    set(${var} "")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${ENV1}
          "${BENCH}" "${SEED}" "--metrics-out=${OUT1}" ${ARGS1}
  RESULT_VARIABLE rc1
  OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "bench '${BENCH}' (run 1: ${ENV1} ${ARGS1}) exited with ${rc1}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ${ENV2}
          "${BENCH}" "${SEED}" "--metrics-out=${OUT2}" ${ARGS2}
  RESULT_VARIABLE rc2
  OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "bench '${BENCH}' (run 2: ${ENV2} ${ARGS2}) exited with ${rc2}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT1}" "${OUT2}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "physics exports differ between environments: "
    "'${OUT1}' vs '${OUT2}'")
endif()
