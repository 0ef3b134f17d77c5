# bench_gate on a BENCH file that is not JSON (here torn before its
# closing brackets) must exit 2, name the byte offset where the text
# stopped being JSON, and append nothing to the history.
#
#   cmake -DGATE=<path to bench_gate> -DWORK=<scratch dir> \
#         -P bench_gate_malformed.cmake

cmake_minimum_required(VERSION 3.16)

set(bench ${WORK}/BENCH_torn.json)
set(history ${WORK}/BENCH_torn_history.jsonl)
set(text "{\"benchmarks\": [{\"name\": \"BM_CoreThroughput/fast\", \"machine_instrs_per_s\": 2.2e8}")
string(LENGTH "${text}" offset)
file(WRITE ${bench} "${text}")
file(REMOVE ${history})

execute_process(COMMAND ${GATE} ${bench} ${history}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_gate on a torn file: exit ${rc}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "at byte ${offset}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "bench_gate does not name byte ${offset}:\n${err}")
endif()
if(EXISTS ${history})
    message(FATAL_ERROR "bench_gate recorded a torn file in ${history}")
endif()
