# bench_hdfs_sharded must reject malformed or out-of-range SPLITIO_SHARD_*
# values with exit 2 and a message naming the variable and its value,
# instead of crashing (a zero grouping divides by zero) or hanging (fewer
# workers than replicas never places a block). Each run is capped at a few
# seconds, so a crash or a hang fails the check.
# Invoked by ctest; pass -DBENCH=<path-to-bench_hdfs_sharded>.
if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to bench_hdfs_sharded>")
endif()

foreach(bad SPLITIO_SHARD_NODES=12abc SPLITIO_SHARD_NODES=2
        SPLITIO_SHARD_GROUPING=0)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env ASAN_OPTIONS=detect_leaks=0
                  SPLITIO_SHARD_CHECK=1 ${bad} ${BENCH}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc
                  TIMEOUT 5)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${bad}: expected exit 2, got '${rc}'\n${err}")
  endif()
  string(FIND "${err}" "${bad}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${bad}: stderr does not name the value:\n${err}")
  endif()
endforeach()
