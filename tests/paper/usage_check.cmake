# bitspec-paper input validation: with no argument, with an unknown
# figure id (alone or after a valid one) or with a malformed `diff`
# (missing ledgers, an unknown flag), the driver must exit 2, print
# nothing on stdout (nothing ran) and print its usage on stderr: one
# line per mode, then every valid id, in the order `all` prints them.
#
#   cmake -DPAPER=<path to bitspec-paper> -P usage_check.cmake

set(ids "fig01 fig03 fig05 fig08 fig09 fig10 fig11 fig12 rq3 fig13 fig14 fig15 fig16 rq7 fig17 fig18")
set(modes
    " all | <id>...\n"
    " report\n"
    " heat [folded-dir]\n"
    " diff <A.jsonl> <B.jsonl> [--abs-tol X] [--rel-tol-pct X] [--verbose] [--json <path>]\n"
    " smoke [BENCH.json]\n")

foreach(args "" "fig99" "fig08;fig99" "all;Fig08" "diff" "diff;a.jsonl"
        "diff;a.jsonl;b.jsonl;--bogus")
    execute_process(COMMAND ${PAPER} ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "bitspec-paper '${args}': exit ${rc}, want 2")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR
            "bitspec-paper '${args}' ran something:\n${out}")
    endif()
    foreach(line IN LISTS modes ITEMS "ids: ${ids}\n")
        string(FIND "${err}" "${line}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                "bitspec-paper '${args}': stderr does not list '${line}':\n${err}")
        endif()
    endforeach()
endforeach()
