# Runs BIN with ARGS (optional extra leading arguments, space-separated)
# and FLAG VALUE, and fails unless the program rejects the value up front:
# a non-zero exit, nothing on stdout (the bench programs print their
# banner before any set-up or training), and an error on stderr naming the
# flag, the value and the accepted values.
#
#
#   cmake -DBIN=<program> [-DARGS="--infer-algo quantized"] -DFLAG=--family
#         -DVALUE=xyz -P ExpectRejected.cmake
#
# With -DIN_ENV=ON the value comes from the test's environment (the flag's
# SLOPE_* variable), so FLAG and VALUE only name the expected error and are
# not passed on the command line.
separate_arguments(Leading UNIX_COMMAND "${ARGS}")
if(IN_ENV)
  set(Passed "")
else()
  set(Passed ${FLAG} ${VALUE})
endif()
execute_process(COMMAND ${BIN} ${Leading} ${Passed}
                RESULT_VARIABLE Result
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                TIMEOUT 30)
if(Result EQUAL 0)
  message(FATAL_ERROR "${ARGS} ${FLAG} ${VALUE} was accepted (exit 0)")
endif()
if(NOT Out STREQUAL "")
  message(FATAL_ERROR "${ARGS} ${FLAG} ${VALUE} printed before rejecting:\n"
                      "${Out}")
endif()
if(NOT Err MATCHES "unknown ${FLAG} '${VALUE}' \\(accepted: ")
  message(FATAL_ERROR "${ARGS} ${FLAG} ${VALUE}: no error naming the "
                      "accepted values on stderr:\n${Err}")
endif()
