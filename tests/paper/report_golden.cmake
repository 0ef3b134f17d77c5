# Report goldens through the command line: `bitspec-paper report`
# (per-region misspeculation attribution and energy split) and
# `bitspec-paper heat` (per-block heat listing), each run alone on a
# fresh runner that builds its own Systems, must exit 0 and print
# golden/paper/<mode>.txt byte for byte, as test_paper's in-process
# check over the figures' runner does. A failure names the mode and
# its first differing line.
#
#   cmake -DPAPER=<path to bitspec-paper> -DGOLDEN_DIR=<dir> \
#         -P report_golden.cmake
#
# After an intended change to a report, re-record its golden:
#
#   bitspec-paper report > tests/golden/paper/report.txt

cmake_minimum_required(VERSION 3.16)

foreach(mode report heat)
    execute_process(COMMAND ${PAPER} ${mode}
        RESULT_VARIABLE rc OUTPUT_VARIABLE got ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bitspec-paper ${mode}: exit ${rc}\n${err}")
    endif()
    file(READ ${GOLDEN_DIR}/${mode}.txt want)
    if(got STREQUAL want)
        continue()
    endif()

    # Walk both texts line by line (plain string ops: the reports may
    # hold ';', which CMake lists would split on).
    set(line 1)
    while(TRUE)
        string(FIND "${got}" "\n" g)
        string(FIND "${want}" "\n" w)
        if(g EQUAL -1)
            set(g_line "${got}[end of output]")
        else()
            string(SUBSTRING "${got}" 0 ${g} g_line)
        endif()
        if(w EQUAL -1)
            set(w_line "${want}[end of output]")
        else()
            string(SUBSTRING "${want}" 0 ${w} w_line)
        endif()
        if(NOT g_line STREQUAL w_line OR g EQUAL -1 OR w EQUAL -1)
            break()
        endif()
        math(EXPR g "${g} + 1")
        math(EXPR w "${w} + 1")
        string(SUBSTRING "${got}" ${g} -1 got)
        string(SUBSTRING "${want}" ${w} -1 want)
        math(EXPR line "${line} + 1")
    endwhile()
    message(FATAL_ERROR
        "bitspec-paper ${mode} differs from ${GOLDEN_DIR}/${mode}.txt "
        "at line ${line}:\n  golden: ${w_line}\n  got:    ${g_line}")
endforeach()
