# End-to-end check of the sweep_service queue daemon: out-of-domain
# co-simulation requests are rejected into NAME.err files, and the
# daemon keeps serving the valid request queued behind them.
#
#   cmake -DSWEEP_SERVICE=<sweep_service binary> -DQUEUE_DIR=<empty dir>
#         -P sweep_service_daemon.cmake

if(NOT SWEEP_SERVICE OR NOT QUEUE_DIR)
    message(FATAL_ERROR "set SWEEP_SERVICE and QUEUE_DIR")
endif()
file(REMOVE_RECURSE "${QUEUE_DIR}")
file(MAKE_DIRECTORY "${QUEUE_DIR}")

# Unchecked, each of these would abort the daemon on an engine
# assertion or be served as a meaningless result.
set(bad_axes
    "bandwidths 0"
    "memory-levels 3\ncompute-fractions 0.5"
    "op-error 2"
    "compute-fractions -1"
    "fault-rates 1.5"
    "link-fidelities nan"
    "delivery-threshold nan")
set(index 0)
foreach(axis IN LISTS bad_axes)
    file(WRITE "${QUEUE_DIR}/bad${index}.req"
         "kind cosim\nworkload toffoli 4\n${axis}\n")
    math(EXPR index "${index} + 1")
endforeach()
list(LENGTH bad_axes num_bad)
# Queued last: requests are served in name order.
file(WRITE "${QUEUE_DIR}/valid.req"
     "kind cosim\nworkload toffoli 4\nbandwidths 1 2\n")

execute_process(
    COMMAND "${SWEEP_SERVICE}" serve --queue "${QUEUE_DIR}" --once
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sweep_service serve --once exited with ${status}")
endif()

math(EXPR last "${num_bad} - 1")
foreach(i RANGE ${last})
    list(GET bad_axes ${i} axis)
    if(NOT EXISTS "${QUEUE_DIR}/bad${i}.err"
       OR EXISTS "${QUEUE_DIR}/bad${i}.out")
        message(FATAL_ERROR "request '${axis}' was not rejected")
    endif()
endforeach()
if(EXISTS "${QUEUE_DIR}/valid.err" OR NOT EXISTS "${QUEUE_DIR}/valid.out")
    message(FATAL_ERROR "the valid request behind the bad ones was not served")
endif()
file(READ "${QUEUE_DIR}/valid.out" output)
if(output STREQUAL "")
    message(FATAL_ERROR "the valid request produced empty output")
endif()
file(REMOVE_RECURSE "${QUEUE_DIR}")
