# Deep-nesting rejection: a document that opens 100,000 arrays must make a
# JSON-reading tool exit with a positioned diagnostic, not crash on stack
# overflow (obs::kMaxJsonDepth bounds the parser's recursion).
#
# Invoked by ctest (see tools/CMakeLists.txt) as:
#   cmake -DTOOL=<exe> -DARGS_BEFORE=<arg;...> -DOUT=<path> -P json_depth.cmake
# The tool runs as TOOL ARGS_BEFORE... OUT.
foreach(var TOOL OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "json_depth.cmake: missing -D${var}=...")
  endif()
endforeach()

string(REPEAT "[" 100000 deep)
file(WRITE "${OUT}" "${deep}")

execute_process(
  COMMAND "${TOOL}" ${ARGS_BEFORE} "${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0 OR rc GREATER 3)
  message(FATAL_ERROR "'${TOOL}' on a 100000-deep document exited '${rc}', "
                      "expected a diagnostic exit (1-3)")
endif()
if(NOT err MATCHES "nesting deeper than 256 at byte 256")
  message(FATAL_ERROR "no depth diagnostic from '${TOOL}': ${err}")
endif()
