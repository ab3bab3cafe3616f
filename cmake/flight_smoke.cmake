# Flight-recorder end-to-end smoke, two legs:
#
#  1. Fault-triggered dump: run the resilience bench under a fault plan
#     with JMB_FLIGHT_DUMP_DIR set; the quarantine path must write a
#     flight_*.json dump that validates against the trace_event schema
#     and that trace_stats can break down (i.e. it carries span events).
#  2. Explicit drain: run the sample-level fig07 bench with --trace-out;
#     the trace must validate and trace_stats must find the per-stage
#     spans and item flows (it exits 1 on a span-less trace).
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DRESILIENCE=<exe> -DFIG07=<exe> -DVALIDATOR=<exe>
#         -DTRACE_STATS=<exe> -DSCHEMA=<trace_event schema>
#         -DFAULT_PLAN=<plan json> -DDUMP_DIR=<dir> -DTRACE_OUT=<path>
#         -P flight_smoke.cmake
foreach(var RESILIENCE FIG07 VALIDATOR TRACE_STATS SCHEMA FAULT_PLAN
            DUMP_DIR TRACE_OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "flight_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

function(check_trace path)
  execute_process(
    COMMAND "${VALIDATOR}" "${SCHEMA}" "${path}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${path}' failed trace_event schema validation")
  endif()
  execute_process(
    COMMAND "${TRACE_STATS}" "${path}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_stats could not analyze '${path}' (${rc})")
  endif()
endfunction()

# --- Leg 1: the quarantine path dumps a crash scene automatically.
file(REMOVE_RECURSE "${DUMP_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "JMB_FLIGHT_DUMP_DIR=${DUMP_DIR}"
          "${RESILIENCE}" 3 "--fault-plan=${FAULT_PLAN}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "resilience bench exited with ${bench_rc}")
endif()

file(GLOB dumps "${DUMP_DIR}/flight_*.json")
list(LENGTH dumps n_dumps)
if(n_dumps EQUAL 0)
  message(FATAL_ERROR
    "no flight dump in '${DUMP_DIR}': the quarantine trigger did not fire")
endif()
list(GET dumps 0 first_dump)
check_trace("${first_dump}")

# --- Leg 2: --trace-out drains the recorder after a fig07 run.
execute_process(
  COMMAND "${FIG07}" 7 "--trace-out=${TRACE_OUT}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "fig07 bench exited with ${bench_rc}")
endif()
if(NOT EXISTS "${TRACE_OUT}")
  message(FATAL_ERROR "fig07 bench did not write '${TRACE_OUT}'")
endif()
check_trace("${TRACE_OUT}")
