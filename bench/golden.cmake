# Golden-output check: runs one bench binary in full mode and requires its
# stdout to match the checked-in expectation byte for byte. Virtual time
# makes the paper-table benches bit-deterministic, so any difference is a
# behaviour change. The actual output is kept next to the test for diffing.
#
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file> -P golden.cmake
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(WRITE ${ACTUAL} "${actual}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}")
endif()
