# bench_gate on a BENCH file that is not JSON (here torn before its
# closing brackets) must exit 2, name the byte offset where the text
# stopped being JSON, and append nothing to the history. So must a
# malformed --window (an integer >= 1) or --drop-pct (a finite number
# >= 0), naming the flag and the value, even on a well-formed file: a
# window read as 0 gates against no records, and a percentage read as
# 0 is a bound no one asked for.
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

set(good ${WORK}/BENCH_flags.json)
file(WRITE ${good} "{\"benchmarks\": [{\"name\": \"BM_CoreThroughput/fast\", \"machine_instrs_per_s\": 2.2e8}]}\n")
foreach(flag_value "--window;x" "--window;0" "--window;-1" "--window;3x"
        "--drop-pct;twenty" "--drop-pct;-5" "--drop-pct;nan"
        "--drop-pct;inf" "--drop-pct;")
    list(GET flag_value 0 flag)
    list(LENGTH flag_value n)
    set(value "")
    if(n GREATER 1)
        list(GET flag_value 1 value)
    endif()
    file(REMOVE ${history})
    execute_process(COMMAND ${GATE} ${good} ${history} ${flag} "${value}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "bench_gate ${flag} '${value}': exit ${rc}, want 2\n${out}${err}")
    endif()
    string(FIND "${err}" "${flag} '${value}'" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "bench_gate does not name ${flag} '${value}':\n${err}")
    endif()
    if(EXISTS ${history})
        message(FATAL_ERROR "bench_gate ${flag} '${value}' recorded in ${history}")
    endif()
endforeach()

# Well-formed values still gate.
file(REMOVE ${history})
execute_process(COMMAND ${GATE} ${good} ${history} --window 3 --drop-pct 12.5
        --check-only
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_gate --window 3 --drop-pct 12.5: exit ${rc}, want 0\n${out}${err}")
endif()
file(REMOVE ${bench} ${good} ${history})
