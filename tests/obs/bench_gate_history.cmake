# bench_gate reads its history strictly. A corrupt line before the
# last lost a record: bench_gate exits 2 and names `path:line`. A torn
# final line is what a crash mid-append leaves: it is skipped with a
# warning naming it, and the gate runs.
#
#   cmake -DGATE=<path to bench_gate> -DWORK=<scratch dir> \
#         -P bench_gate_history.cmake

cmake_minimum_required(VERSION 3.16)

set(bench ${WORK}/BENCH_gate_history.json)
set(history ${WORK}/BENCH_gate_history.jsonl)
set(record "{\"schema_version\":1,\"git_sha\":\"abc1234\",\"build_type\":\"release\",\"timestamp\":\"2026-01-01T00:00:00Z\",\"debug_build\":false,\"series\":{\"rate.core_fast_machine_per_s\":220000000}}")
file(WRITE ${bench} "{\"benchmarks\": [{\"name\": \"BM_CoreThroughput/fast\", \"machine_instrs_per_s\": 2.2e8}]}\n")

file(WRITE ${history} "${record}\ngarbage line\n${record}\n")
execute_process(COMMAND ${GATE} ${bench} ${history} --check-only
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench_gate on a corrupt middle line: exit ${rc}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "${history}:2:" at)
if(at EQUAL -1)
    message(FATAL_ERROR "bench_gate does not name ${history}:2:\n${err}")
endif()

file(WRITE ${history} "${record}\n${record}\n{\"schema_version\":1,\"git")
execute_process(COMMAND ${GATE} ${bench} ${history} --check-only
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 2)
    message(FATAL_ERROR "bench_gate refused a torn final line: exit 2\n${out}${err}")
endif()
string(FIND "${err}" "${history}:3:" at)
if(at EQUAL -1)
    message(FATAL_ERROR "bench_gate does not name the torn ${history}:3:\n${err}")
endif()
file(REMOVE ${bench} ${history})
