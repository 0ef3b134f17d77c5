# bitspec-paper input validation: with no argument, or with an unknown
# figure id (alone or after a valid one), the driver must exit 2,
# print nothing on stdout (no figure ran) and list every valid id on
# stderr, in the order `all` prints them.
#
#   cmake -DPAPER=<path to bitspec-paper> -P usage_check.cmake

set(ids "fig01 fig03 fig05 fig08 fig09 fig10 fig11 fig12 rq3 fig13 fig14 fig15 fig16 rq7 fig17 fig18")

foreach(args "" "fig99" "fig08;fig99" "all;Fig08")
    execute_process(COMMAND ${PAPER} ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "bitspec-paper '${args}': exit ${rc}, want 2")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR
            "bitspec-paper '${args}' ran something:\n${out}")
    endif()
    string(FIND "${err}" "ids: ${ids}\n" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "bitspec-paper '${args}': stderr does not list 'ids: ${ids}':\n${err}")
    endif()
endforeach()
