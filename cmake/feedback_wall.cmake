# The CSI-feedback wall fails loudly: one metro cell of 43 users needs a
# measurement epoch (~260 ms) longer than the 0.25 s run, so metro_scale
# must refuse it at entry with exit 2 and name the knob, instead of
# printing 0.0 Mb/s and exiting 0.
#
# Invoked by ctest (see bench/CMakeLists.txt) as:
#   cmake -DBENCH=<metro_scale> -P feedback_wall.cmake
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "feedback_wall.cmake: missing -DBENCH=...")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env JMB_CELLS=1 JMB_USERS_PER_CELL=43
          "${BENCH}" 13
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "metro_scale with 43 users per cell exited '${rc}', "
                      "expected 2")
endif()
if(NOT err MATCHES "JMB_USERS_PER_CELL=43.*at most 42 users per cell fit")
  message(FATAL_ERROR "no feedback-wall diagnostic from metro_scale: ${err}")
endif()
