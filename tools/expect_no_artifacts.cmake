# Runs a command that must fail and checks that it left no file behind in
# the directory its output flags point into.
#
#   cmake -DOUT_DIR=<dir> -P expect_no_artifacts.cmake -- <command> <args>...
#
# OUT_DIR is emptied first, so any file in it afterwards (an empty probe, a
# half-written artifact or its .tmp sibling) was left by the failed run.
if(NOT OUT_DIR)
  message(FATAL_ERROR "pass -DOUT_DIR=<dir>")
endif()
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "pass the command after --")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(result EQUAL 0)
  message(FATAL_ERROR "expected the command to fail: ${command}")
endif()
file(GLOB leftovers "${OUT_DIR}/*")
if(leftovers)
  message(FATAL_ERROR "the failed run left files behind: ${leftovers}\n"
                      "its error output: ${errors}")
endif()
message(STATUS "failed as expected, no files left: ${errors}")
