# Runs one example and compares its stdout with the checked-in transcript:
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<transcript.txt> -P check_transcript.cmake
# Fails when the example exits non-zero or prints anything else. The
# examples run on virtual time, so their transcripts are byte-stable across
# build types and hosts; a diff means the simulated story changed.
execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_path "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_path}" "${actual}")
  message("--- actual output (also in ${actual_path}) ---\n${actual}")
  message(FATAL_ERROR "${EXAMPLE}: transcript differs from ${GOLDEN}")
endif()
