# Runs a bench that writes a JSON artifact and compares the file with a
# checked-in golden copy byte for byte:
#   cmake -DBENCH=<binary> "-DARGS=<arg;arg;...>" -DOUT=<written.json>
#         -DGOLDEN=<golden.json> -P check_golden_json.cmake
# ARGS must end with OUT, the path the bench writes. Meant for virtual-time
# artifacts, which are a pure function of their configuration and seed: a
# diff means the simulated outcome changed.
execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${OUT}" actual)
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message("--- actual output (in ${OUT}) ---\n${actual}")
  message(FATAL_ERROR "${BENCH}: ${OUT} differs from ${GOLDEN}")
endif()
