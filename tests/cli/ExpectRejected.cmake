# Runs BIN with ARGS (optional extra leading arguments, space-separated)
# and FLAG VALUE, and fails unless the program rejects them up front: a
# non-zero exit, nothing on stdout (the bench programs print their banner
# before any set-up or training), and an error on stderr naming the flag,
# the value and what is accepted.
#
#
#   cmake -DBIN=<program> [-DARGS="--infer-algo quantized"] -DFLAG=--family
#         -DVALUE=xyz -P ExpectRejected.cmake
#
# With -DIN_ENV=ON the value comes from the test's environment (the flag's
# SLOPE_* variable), so FLAG and VALUE only name the expected error and are
# not passed on the command line. Without VALUE, FLAG is passed last with
# no value and the error must say that it needs one. With -DUNKNOWN=ON,
# FLAG is an argument the program does not know (VALUE, if given, follows
# it) and the error must name it as an unknown argument.
separate_arguments(Leading UNIX_COMMAND "${ARGS}")
if(IN_ENV)
  set(Passed "")
elseif(DEFINED VALUE)
  set(Passed ${FLAG} ${VALUE})
else()
  set(Passed ${FLAG})
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
if(UNKNOWN)
  set(Expected "unknown argument '${FLAG}' \\(accepted: ")
elseif(DEFINED VALUE)
  set(Expected "unknown ${FLAG} '${VALUE}' \\(accepted: ")
else()
  set(Expected "${FLAG} needs a value \\(accepted: ")
endif()
if(NOT Err MATCHES "${Expected}")
  message(FATAL_ERROR "${ARGS} ${FLAG} ${VALUE}: no error naming what is "
                      "accepted on stderr:\n${Err}")
endif()
