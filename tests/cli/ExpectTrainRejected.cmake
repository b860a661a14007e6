# Runs `BIN train CSV MODEL` and fails unless the program refuses the
# dataset: a non-zero exit, an error on stderr naming the non-finite cell,
# and no model file written.
#
#   cmake -DBIN=<slope_tool> -DCSV=<dataset.csv> -DMODEL=<path>
#         -P ExpectTrainRejected.cmake
file(REMOVE "${MODEL}")
execute_process(COMMAND ${BIN} train ${CSV} ${MODEL}
                RESULT_VARIABLE Result
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                TIMEOUT 30)
if(Result EQUAL 0)
  message(FATAL_ERROR "train accepted ${CSV} (exit 0):\n${Out}")
endif()
if(NOT Err MATCHES "non-finite cell '.*' in row [0-9]+, column ")
  message(FATAL_ERROR "train ${CSV}: no error naming the non-finite cell "
                      "on stderr:\n${Err}")
endif()
if(EXISTS "${MODEL}")
  message(FATAL_ERROR "train ${CSV} wrote a model to ${MODEL}")
endif()
