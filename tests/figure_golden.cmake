# Re-runs the `figure` driver on two tiny figures and compares the output,
# byte for byte, with tests/golden/figure_tiny.golden:
#   1. `figure table1_network_delays` stdout;
#   2. `figure fig13_hybrid_cloud --dsan` stdout at NATTO_REPEATS=1
#      NATTO_DURATION_S=3 NATTO_JOBS=1;
#   3. the same run's `dsan:` digest lines (stderr).
#
# Usage: cmake -DFIGURE=<figure binary> -DGOLDEN=<golden file>
#              -DACTUAL=<where to leave the output on a mismatch>
#              -P figure_golden.cmake
# With NATTO_WRITE_GOLDEN=1 in the environment the golden is rewritten
# instead of compared.

execute_process(COMMAND ${FIGURE} table1_network_delays
                OUTPUT_VARIABLE table1 RESULT_VARIABLE table1_rc)
execute_process(COMMAND ${CMAKE_COMMAND} -E env NATTO_REPEATS=1
                        NATTO_DURATION_S=3 NATTO_JOBS=1
                        ${FIGURE} fig13_hybrid_cloud --dsan
                OUTPUT_VARIABLE fig13 ERROR_VARIABLE fig13_err
                RESULT_VARIABLE fig13_rc)
if(NOT table1_rc EQUAL 0 OR NOT fig13_rc EQUAL 0)
  message(FATAL_ERROR "figure failed (table1: ${table1_rc}, "
                      "fig13: ${fig13_rc})\n${fig13_err}")
endif()
string(REGEX MATCHALL "dsan: [^\n]*\n" dsan_lines "${fig13_err}")
string(JOIN "" dsan ${dsan_lines})

set(actual "--- figure table1_network_delays: stdout ---\n${table1}")
string(APPEND actual "--- NATTO_REPEATS=1 NATTO_DURATION_S=3 NATTO_JOBS=1 "
                     "figure fig13_hybrid_cloud --dsan: stdout ---\n${fig13}")
string(APPEND actual
       "--- the same run: dsan digest lines (stderr) ---\n${dsan}")

if("$ENV{NATTO_WRITE_GOLDEN}" STREQUAL "1")
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "figure output differs from ${GOLDEN}; "
                      "see: diff ${GOLDEN} ${ACTUAL}")
endif()
