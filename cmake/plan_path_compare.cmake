# bench_compare matches a fault plan by its final path component: the same
# plan named by an absolute path is the same experiment (exit 0), a
# different plan or any other changed "faults" field is structural drift
# (exit 3).
#
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DCOMPARE=<bench_compare exe> -DBASELINE=<resilience baseline>
#         -DOUT=<path prefix> -P plan_path_compare.cmake
foreach(var COMPARE BASELINE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "plan_path_compare.cmake: missing -D${var}=...")
  endif()
endforeach()

file(READ "${BASELINE}" text)
set(rel "\"plan\":\"examples/fault_plans/lossy_sync.json\"")
string(FIND "${text}" "${rel}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BASELINE} does not name ${rel}")
endif()

function(expect_exit label replacement want)
  string(REPLACE "${rel}" "${replacement}" edited "${text}")
  file(WRITE "${OUT}.${label}.json" "${edited}")
  execute_process(
    COMMAND "${COMPARE}" "${BASELINE}" "${OUT}.${label}.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${label}: bench_compare exited ${rc}, expected "
                        "${want}: ${err}")
  endif()
endfunction()

expect_exit(absolute
  "\"plan\":\"/srv/checkout/examples/fault_plans/lossy_sync.json\"" 0)
expect_exit(bare "\"plan\":\"lossy_sync.json\"" 0)
expect_exit(other_plan "\"plan\":\"examples/fault_plans/ap_crash.json\"" 3)
expect_exit(other_field
  "\"plan\":\"examples/fault_plans/lossy_sync.json\",\"extra\":1" 3)
