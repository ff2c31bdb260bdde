# Runs PROG with the single argument ARG and fails unless it exits with
# exactly EXPECT. WILL_FAIL cannot tell a usage exit (2) from an abort.
#   cmake -DPROG=<exe> -DARG=<arg> -DEXPECT=2 -P expect_exit.cmake
execute_process(COMMAND "${PROG}" "${ARG}" RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${PROG} ${ARG}: expected exit ${EXPECT}, got '${rc}'\n${err}")
endif()
