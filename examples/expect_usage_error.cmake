# Runs `CLI ARG` with numbers on stdin and fails unless the CLI exits
# STATUS (default 2, a usage error) and names the flag on stderr. A usage
# error must also print nothing to stdout: the flag must be rejected
# before stdin is read and summed. Usage:
#   cmake -DCLI=<binary> -DARG=<argument> -DFLAG=<flag name>
#         -DWORK_DIR=<dir> [-DSTATUS=<exit status>] -P expect_usage_error.cmake
foreach(var CLI ARG FLAG WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_usage_error.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
# One input file per ARG: ctest runs these cases in parallel.
string(MD5 tag "${ARG}")
set(input "${WORK_DIR}/expect_usage_error_${tag}.txt")
file(WRITE "${input}" "1.5\n2.25\n")
execute_process(COMMAND "${CLI}" "${ARG}" INPUT_FILE "${input}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "${CLI} ${ARG} exited '${status}', expected ${STATUS}\n${err}")
endif()
string(FIND "${err}" "--${FLAG}" named)
if(named EQUAL -1)
  message(FATAL_ERROR "${CLI} ${ARG} did not name --${FLAG}:\n${err}")
endif()
if(STATUS STREQUAL "2" AND NOT out STREQUAL "")
  message(FATAL_ERROR "${CLI} ${ARG} read stdin before rejecting it:\n${out}")
endif()
